package silo

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Value-log entry framing. Each committed transaction appends one entry
// under the log mutex:
//
//	total    uint32  entry size including this 20-byte header
//	checksum uint32  FNV-1a over the body
//	tid      uint64  commit TID (epoch ‖ sequence)
//	_        uint32  padding
//	body: [count u32] then per write:
//	      [nameLen u8][table name][klen u32][key][vlen u32][val]
//	      (vlen == absentValue marks a delete)
//
// Replay applies, for every key, the write with the highest commit TID.
// That is correct even though commit TIDs are only per-record ordered:
// Silo's TID assignment makes successive writers of the same record use
// strictly increasing TIDs (each saw its predecessor's TID word).
const (
	entryHeader = 20
	absentValue = 0xFFFFFFFF
	logName     = "silo-log"
	prevLogName = "silo-log-prev"
)

func fnv32(p []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range p {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// encodeEntry frames one committed transaction's writes.
func encodeEntry(buf []byte, tid uint64, writes []writeEntry) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, entryHeader)...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(writes)))
	for i := range writes {
		w := &writes[i]
		buf = append(buf, byte(len(w.tbl.name)))
		buf = append(buf, w.tbl.name...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.key)))
		buf = append(buf, w.key...)
		if w.absent {
			buf = binary.LittleEndian.AppendUint32(buf, absentValue)
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.data)))
		buf = append(buf, w.data...)
	}
	body := buf[start+entryHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start))
	binary.LittleEndian.PutUint32(buf[start+4:], fnv32(body))
	binary.LittleEndian.PutUint64(buf[start+8:], tid)
	return buf
}

// readLog loads a log file's bytes, or nil if absent.
func readLog(cfg Config, name string) ([]byte, error) {
	f, err := cfg.Storage.Open(name)
	if err != nil {
		return nil, nil // absent: nothing to recover
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return data, nil
}

// Recover rebuilds a Silo database from its value log (SiloR-style: the
// log holds full record images, so replay is one sequential pass keeping
// the highest-TID write per key). The rebuilt database writes a fresh,
// compacted log; the previous log is kept as a backup until recovery
// completes, so a crash during recovery retries from the same bytes.
func Recover(cfg Config) (*DB, error) {
	if cfg.Storage == nil {
		return nil, fmt.Errorf("silo: Recover requires explicit storage")
	}
	// Prefer a backup left by an interrupted recovery; otherwise move the
	// current log aside before Open truncates it.
	data, err := readLog(cfg, prevLogName)
	if err != nil {
		return nil, err
	}
	if data == nil {
		data, err = readLog(cfg, logName)
		if err != nil {
			return nil, err
		}
		if data != nil {
			bak, err := cfg.Storage.Create(prevLogName)
			if err != nil {
				return nil, err
			}
			if _, err := bak.WriteAt(data, 0); err != nil {
				return nil, err
			}
			if err := bak.Sync(); err != nil {
				return nil, err
			}
			bak.Close()
		}
	}

	db, err := Open(cfg) // creates a fresh value log
	if err != nil {
		return nil, err
	}
	if data == nil {
		return db, nil
	}

	type slot struct {
		tid    uint64
		val    []byte
		absent bool
	}
	state := map[string]map[string]slot{}
	off := 0
	var maxEpoch uint64
	for off+entryHeader <= len(data) {
		total := int(binary.LittleEndian.Uint32(data[off:]))
		if total < entryHeader+4 || off+total > len(data) {
			break // torn tail
		}
		sum := binary.LittleEndian.Uint32(data[off+4:])
		tid := binary.LittleEndian.Uint64(data[off+8:])
		body := data[off+entryHeader : off+total]
		if fnv32(body) != sum {
			break
		}
		if e := tidEpoch(tid); e > maxEpoch {
			maxEpoch = e
		}
		count := int(binary.LittleEndian.Uint32(body))
		p := body[4:]
		ok := true
		for i := 0; i < count && ok; i++ {
			if len(p) < 1 {
				ok = false
				break
			}
			nlen := int(p[0])
			p = p[1:]
			if len(p) < nlen+4 {
				ok = false
				break
			}
			table := string(p[:nlen])
			klen := int(binary.LittleEndian.Uint32(p[nlen:]))
			p = p[nlen+4:]
			if len(p) < klen+4 {
				ok = false
				break
			}
			key := string(p[:klen])
			vlen := binary.LittleEndian.Uint32(p[klen:])
			p = p[klen+4:]
			w := slot{tid: tid, absent: vlen == absentValue}
			if !w.absent {
				if len(p) < int(vlen) {
					ok = false
					break
				}
				w.val = append([]byte(nil), p[:vlen]...)
				p = p[vlen:]
			}
			tbl := state[table]
			if tbl == nil {
				tbl = map[string]slot{}
				state[table] = tbl
			}
			if prev, seen := tbl[key]; !seen || tid > prev.tid {
				tbl[key] = w
			}
		}
		if !ok {
			break
		}
		off += total
	}

	// Resume the epoch past everything recovered, then install the state
	// through normal transactions; their commits write the compacted log.
	if cur := db.epoch.Load(); maxEpoch+2 > cur {
		db.epoch.Store(maxEpoch + 2)
	}
	for table, rows := range state {
		tbl := db.CreateTable(table)
		txn := db.Begin(0)
		n := 0
		for key, w := range rows {
			if w.absent {
				continue
			}
			if err := txn.Insert(tbl, []byte(key), w.val); err != nil {
				txn.Abort()
				db.Close()
				return nil, fmt.Errorf("silo: replay %s/%x: %w", table, key, err)
			}
			if n++; n%1000 == 0 {
				if err := txn.Commit(); err != nil {
					db.Close()
					return nil, err
				}
				txn = db.Begin(0)
			}
		}
		if err := txn.Commit(); err != nil {
			db.Close()
			return nil, err
		}
	}
	if err := db.logFile.Sync(); err != nil {
		db.Close()
		return nil, err
	}
	// Recovery complete and durable: drop the backup.
	cfg.Storage.Remove(prevLogName)
	return db, nil
}
