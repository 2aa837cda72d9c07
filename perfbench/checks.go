package main

import (
	"fmt"
	"math"

	"ermia/internal/codec"
	"ermia/internal/engine"
	"ermia/internal/query"
	"ermia/internal/tpcc"
)

// checkTPCC verifies TPC-C consistency conditions 1-3 (clause 3.3.2) for
// every warehouse, in one read-only snapshot, through the tpcc decoders:
//
//  1. W_YTD = sum(D_YTD) over the warehouse's districts;
//  2. D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID) for each district;
//  3. max(NO_O_ID) - min(NO_O_ID) + 1 = count of NEW-ORDER rows per district.
func checkTPCC(db engine.DB, warehouses int) []string {
	var bad []string
	txn := db.BeginReadOnly(0)
	defer txn.Abort()
	wt, dt := db.OpenTable(tpcc.TableWarehouse), db.OpenTable(tpcc.TableDistrict)
	ot, nt := db.OpenTable(tpcc.TableOrder), db.OpenTable(tpcc.TableNewOrder)
	for w := 1; w <= warehouses; w++ {
		wv, err := txn.Get(wt, tpcc.WarehouseKey(w))
		if err != nil {
			return append(bad, fmt.Sprintf("tpcc: warehouse %d: %v", w, err))
		}
		var dSum float64
		for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
			dv, err := txn.Get(dt, tpcc.DistrictKey(w, d))
			if err != nil {
				return append(bad, fmt.Sprintf("tpcc: district %d/%d: %v", w, d, err))
			}
			dist := tpcc.DecodeDistrict(dv)
			dSum += dist.YTD

			maxO, err := lastID(txn, ot, tpcc.OrderKey(w, d, 0), tpcc.OrderKey(w, d, math.MaxUint64))
			if err != nil {
				return append(bad, fmt.Sprintf("tpcc: orders %d/%d: %v", w, d, err))
			}
			var noMin, noMax, noCount uint64
			lo, hi := tpcc.NewOrderPrefix(w, d)
			err = txn.Scan(nt, lo, hi, func(k, _ []byte) bool {
				id := orderID(k)
				if noCount == 0 {
					noMin = id
				}
				noMax = id
				noCount++
				return true
			})
			if err != nil {
				return append(bad, fmt.Sprintf("tpcc: new-orders %d/%d: %v", w, d, err))
			}
			if dist.NextOID-1 != maxO || (noCount > 0 && noMax != maxO) {
				bad = append(bad, fmt.Sprintf("tpcc: condition 2, w%d d%d: D_NEXT_O_ID-1=%d max(O_ID)=%d max(NO_O_ID)=%d",
					w, d, dist.NextOID-1, maxO, noMax))
			}
			if noCount > 0 && noMax-noMin+1 != noCount {
				bad = append(bad, fmt.Sprintf("tpcc: condition 3, w%d d%d: NO ids [%d,%d] but %d rows",
					w, d, noMin, noMax, noCount))
			}
		}
		if ytd := tpcc.DecodeWarehouse(wv).YTD; math.Abs(ytd-dSum) > 0.01 {
			bad = append(bad, fmt.Sprintf("tpcc: condition 1, w%d: W_YTD=%.2f sum(D_YTD)=%.2f", w, ytd, dSum))
		}
	}
	if err := txn.Commit(); err != nil {
		bad = append(bad, fmt.Sprintf("tpcc: check snapshot commit: %v", err))
	}
	return bad
}

// orderID decodes the order id from an ORDER or NEW-ORDER key (w, d, o).
func orderID(key []byte) uint64 {
	kd := codec.DecodeKey(key)
	kd.Uint32()
	kd.Uint32()
	return kd.Uint64()
}

// lastID is the largest order id in [lo, hi), 0 when empty.
func lastID(txn engine.Txn, t engine.Table, lo, hi []byte) (uint64, error) {
	var last uint64
	err := txn.Scan(t, lo, hi, func(k, _ []byte) bool {
		last = orderID(k)
		return true
	})
	return last, err
}

// sameRows reports the first cell where two query results differ.
func sameRows(a, b []query.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows, then %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %d cells, then %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return fmt.Errorf("row %d cell %d: %v, then %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}
