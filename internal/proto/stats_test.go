package proto

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// distinctServerStats gives every counter its own value (field i holds
// 0x0101*(i+1), plus a high bit on 64-bit fields), so a decoder that swaps,
// skips or narrows any field fails the round trip.
func distinctServerStats(t *testing.T) ServerStats {
	var st ServerStats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		n := uint64(0x0101 * (i + 1))
		switch f.Kind() {
		case reflect.Uint32:
			f.SetUint(n)
		case reflect.Uint64:
			f.SetUint(n | 1<<40)
		default:
			t.Fatalf("ServerStats.%s: unsupported kind %v", v.Type().Field(i).Name, f.Kind())
		}
	}
	return st
}

func TestServerStatsRoundTrip(t *testing.T) {
	in := distinctServerStats(t)
	enc := AppendServerStats(nil, &in)

	// The wire layout is the struct's field order, each field little-endian
	// at its own width: pinning it here keeps the encoding append-only.
	var want []byte
	v := reflect.ValueOf(in)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() == reflect.Uint32 {
			want = AppendU32(want, uint32(v.Field(i).Uint()))
		} else {
			want = AppendU64(want, v.Field(i).Uint())
		}
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoding differs from field order:\n got %x\nwant %x", enc, want)
	}

	out, err := DecodeServerStats(NewDec(enc))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}

	if _, err := DecodeServerStats(NewDec(enc[:len(enc)-1])); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated stats decoded: err = %v", err)
	}
}
