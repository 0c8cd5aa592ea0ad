package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/obs"
)

// CSV layout follows the Alibaba v2018 usage tables:
//
//	entity_id,time_stamp,cpu_util_percent,mem_util_percent,cpi,mem_gps,mpki,net_in,net_out,disk_io_percent
//
// One row per (entity, timestamp); rows for a given entity are emitted in
// time order. Missing samples are written as empty fields.

// csvHeader is the column header written by WriteCSV and expected (or
// auto-detected) by ReadCSVStats.
var csvHeader = []string{
	"entity_id", "time_stamp",
	"cpu_util_percent", "mem_util_percent", "cpi", "mem_gps",
	"mpki", "net_in", "net_out", "disk_io_percent",
}

// column order in the CSV for each indicator.
var csvIndicatorOrder = [NumIndicators]Indicator{
	CPUUtilPercent, MemUtilPercent, CPI, MemGPS, MPKI, NetIn, NetOut, DiskIOPercent,
}

// WriteCSV writes the entity series to w in the v2018-style layout.
func WriteCSV(w io.Writer, entities []*EntitySeries) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	row := make([]string, len(csvHeader))
	for _, e := range entities {
		for t := 0; t < e.Len(); t++ {
			row[0] = e.ID
			row[1] = strconv.Itoa(t * e.Interval)
			for ci, ind := range csvIndicatorOrder {
				v := e.Metrics[ind][t]
				if math.IsNaN(v) {
					row[2+ci] = ""
				} else {
					row[2+ci] = strconv.FormatFloat(v, 'g', -1, 64)
				}
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("trace: writing row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadStats reports what a lenient CSV load salvaged and what it had to
// drop. Real usage traces are dirty — a collector hiccup truncates a row,
// an exporter emits "null" instead of an empty field — and one bad line
// must not abort a multi-million-row load.
type ReadStats struct {
	Rows    int // data rows parsed into samples
	Skipped int // rows dropped: ragged, unparsable, or duplicate timestamp
	// Errors holds the first few per-row failures (capped) for logs and
	// diagnostics; Skipped is the authoritative count.
	Errors []error
}

// maxRowErrors caps how many per-row failures are retained and logged
// verbatim; beyond that only the Skipped counter grows.
const maxRowErrors = 5

func (st *ReadStats) skip(err error) {
	st.Skipped++
	if len(st.Errors) < maxRowErrors {
		st.Errors = append(st.Errors, err)
		obs.Logger("trace").Warn("skipping unusable csv row", "err", err)
	}
}

// ReadCSVStats parses a v2018-style usage CSV back into entity series,
// with the salvage accounting for callers that want to surface how dirty
// the input was. It is lenient: ragged rows, non-numeric fields, and
// duplicate timestamps are skipped (counted and logged) rather than
// aborting the load, and rows may arrive in any order (they are sorted by
// timestamp per entity). Empty fields become NaN (cleaned later by the
// dataprep stage). An error is returned only when the input held rows but
// none were usable. It is ScanCSV (which accepts the rows and fields, see
// there) plus what a batch load needs on top: rows grouped per entity,
// sorted by timestamp, and duplicate timestamps dropped.
func ReadCSVStats(r io.Reader, kind EntityKind) ([]*EntitySeries, ReadStats, error) {
	// Pointer-valued buffers: the per-row hot path does one map lookup
	// and appends through the pointer, instead of a lookup plus a map
	// re-assignment per row. Growth inside append is geometric; the final
	// per-entity storage is shrunk to exact size below.
	byEntity := map[string]*entityBuf{}
	var order []string
	st, err := ScanCSV(r, func(entity []byte, ts int, vals *[NumIndicators]float64) error {
		eb := byEntity[string(entity)]
		if eb == nil {
			eb = &entityBuf{samples: make([]sample, 0, 16)}
			id := string(entity) // the scanner reuses entity's bytes
			byEntity[id] = eb
			order = append(order, id)
		}
		eb.samples = append(eb.samples, sample{ts: ts, vals: *vals})
		return nil
	})
	if err != nil || st.Rows == 0 {
		return nil, st, err
	}

	out := make([]*EntitySeries, 0, len(order))
	for _, id := range order {
		samples := byEntity[id].samples
		sort.SliceStable(samples, func(a, b int) bool { return samples[a].ts < samples[b].ts })
		// Drop duplicate timestamps (keep the first occurrence): two rows
		// claiming the same instant cannot both be real.
		kept := samples[:1]
		for _, s := range samples[1:] {
			if s.ts == kept[len(kept)-1].ts {
				st.skip(fmt.Errorf("trace: entity %s: duplicate timestamp %d", id, s.ts))
				st.Rows--
				continue
			}
			kept = append(kept, s)
		}
		e := &EntitySeries{ID: id, Kind: kind, Interval: inferInterval(kept)}
		// One exact-size slab for all eight indicator series (the final
		// shrink): a single allocation instead of NumIndicators, and the
		// append-time over-capacity in samples is released here.
		n := len(kept)
		slab := make([]float64, NumIndicators*n)
		for i := range e.Metrics {
			e.Metrics[i] = slab[i*n : (i+1)*n : (i+1)*n]
		}
		for t, s := range kept {
			for i := 0; i < NumIndicators; i++ {
				e.Metrics[i][t] = s.vals[i]
			}
		}
		out = append(out, e)
	}
	return out, st, nil
}

// entityBuf accumulates one entity's rows during a CSV load.
type entityBuf struct {
	samples []sample
}

// sample is one parsed CSV row.
type sample struct {
	ts   int
	vals [NumIndicators]float64
}

func inferInterval(samples []sample) int {
	if len(samples) < 2 {
		return 10
	}
	d := samples[1].ts - samples[0].ts
	if d <= 0 {
		return 10
	}
	return d
}
