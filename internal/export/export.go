// Package export serializes a PADR run — its schedule and power report —
// as JSON so external tooling (plotting scripts, CI dashboards) can consume
// reproduction results without parsing the human tables.
package export

import (
	"encoding/json"
	"io"

	"cst/internal/padr"
	"cst/internal/power"
	"cst/internal/sched"
)

// ScheduleJSON is the wire form of a schedule.
type ScheduleJSON struct {
	// N is the PE count.
	N int `json:"n"`
	// Expr is the parenthesis rendering of the set (only meaningful for
	// right-oriented sets).
	Expr string `json:"expr"`
	// Rounds lists the communications per round as [src, dst] pairs.
	Rounds [][][2]int `json:"rounds"`
}

// Schedule converts a schedule to its wire form.
func Schedule(s *sched.Schedule) ScheduleJSON {
	out := ScheduleJSON{N: s.Set.N, Expr: s.Set.String()}
	for _, round := range s.Rounds {
		row := make([][2]int, len(round))
		for i, c := range round {
			row[i] = [2]int{c.Src, c.Dst}
		}
		out.Rounds = append(out.Rounds, row)
	}
	return out
}

// ReportJSON is the wire form of a power report.
type ReportJSON struct {
	Algorithm string `json:"algorithm"`
	Mode      string `json:"mode"`
	Rounds    int    `json:"rounds"`
	// Total and Max are the headline unit figures.
	TotalUnits int `json:"total_units"`
	MaxUnits   int `json:"max_units"`
	// MaxAlternations is the Lemma 6/7 figure.
	MaxAlternations int `json:"max_alternations"`
	// Switches lists per-switch figures for non-idle switches only.
	Switches []SwitchJSON `json:"switches"`
}

// SwitchJSON is one switch's ledger entry.
type SwitchJSON struct {
	Node         int `json:"node"`
	Units        int `json:"units"`
	Alternations int `json:"alternations"`
}

// Report converts a power report to its wire form.
func Report(r *power.Report) ReportJSON {
	out := ReportJSON{
		Algorithm:       r.Algorithm,
		Mode:            r.Mode.String(),
		Rounds:          r.Rounds,
		TotalUnits:      r.TotalUnits(),
		MaxUnits:        r.MaxUnits(),
		MaxAlternations: r.MaxAlternations(),
	}
	for _, sw := range r.Switches {
		if sw.Units == 0 && sw.Alternations == 0 {
			continue
		}
		out.Switches = append(out.Switches, SwitchJSON{
			Node:         int(sw.Node),
			Units:        sw.Units,
			Alternations: sw.Alternations,
		})
	}
	return out
}

// ResultJSON is the wire form of a full PADR run.
type ResultJSON struct {
	Width           int          `json:"width"`
	Rounds          int          `json:"rounds"`
	UpWords         int          `json:"up_words"`
	DownWords       int          `json:"down_words"`
	ActiveDownWords int          `json:"active_down_words"`
	MaxStoredBytes  int          `json:"max_stored_bytes"`
	Schedule        ScheduleJSON `json:"schedule"`
	Report          ReportJSON   `json:"report"`
}

// Result converts a PADR result to its wire form.
func Result(res *padr.Result) ResultJSON {
	return ResultJSON{
		Width:           res.Width,
		Rounds:          res.Rounds,
		UpWords:         res.UpWords,
		DownWords:       res.DownWords,
		ActiveDownWords: res.ActiveDownWords,
		MaxStoredBytes:  res.MaxStoredBytes,
		Schedule:        Schedule(res.Schedule),
		Report:          Report(res.Report),
	}
}

// WriteResultJSON writes a full run as indented JSON.
func WriteResultJSON(w io.Writer, res *padr.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Result(res))
}
