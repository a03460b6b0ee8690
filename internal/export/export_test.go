package export

import (
	"bytes"
	"encoding/json"
	"testing"

	"cst/internal/comm"
	"cst/internal/padr"
	"cst/internal/topology"
)

func runExample(t *testing.T) *padr.Result {
	t.Helper()
	s := comm.MustParse("((.)(.))")
	e, err := padr.New(topology.MustNew(8), s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReportJSON(t *testing.T) {
	res := runExample(t)
	raw, err := json.Marshal(Report(res.Report))
	if err != nil {
		t.Fatal(err)
	}
	var wire ReportJSON
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Algorithm != "padr" || wire.Mode != "stateful" {
		t.Fatalf("header wrong: %+v", wire)
	}
	if wire.TotalUnits != res.Report.TotalUnits() || wire.MaxUnits != res.Report.MaxUnits() {
		t.Fatalf("units wrong: %+v", wire)
	}
	sum := 0
	for _, sw := range wire.Switches {
		if sw.Units == 0 && sw.Alternations == 0 {
			t.Fatalf("idle switch exported: %+v", sw)
		}
		sum += sw.Units
	}
	if sum != wire.TotalUnits {
		t.Fatalf("per-switch sum %d != total %d", sum, wire.TotalUnits)
	}
}

func TestResultJSON(t *testing.T) {
	res := runExample(t)
	var buf bytes.Buffer
	if err := WriteResultJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var wire ResultJSON
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Width != res.Width || wire.Rounds != res.Rounds {
		t.Fatalf("wire %+v", wire)
	}
	if wire.MaxStoredBytes != res.MaxStoredBytes || wire.UpWords != res.UpWords {
		t.Fatalf("stats wrong: %+v", wire)
	}
	// The schedule keeps every round and every communication in place.
	if len(wire.Schedule.Rounds) != res.Schedule.NumRounds() || wire.Schedule.N != res.Schedule.Set.N {
		t.Fatalf("schedule shape wrong: %+v", wire.Schedule)
	}
	for r, round := range res.Schedule.Rounds {
		for i, c := range round {
			if got := wire.Schedule.Rounds[r][i]; got != [2]int{c.Src, c.Dst} {
				t.Fatalf("round %d comm %d = %v, want %v", r, i, got, c)
			}
		}
	}
}
