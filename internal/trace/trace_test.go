package trace

import (
	"bytes"
	"strings"
	"testing"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/ctrl"
	"cst/internal/padr"
	"cst/internal/topology"
)

func TestRenderSetWellNested(t *testing.T) {
	s := comm.MustParse("(())")
	out := RenderSet(s)
	for _, want := range []string{"PEs : (())", "d=0", "d=1", "gaps: 121"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderSet missing %q:\n%s", want, out)
		}
	}
}

func TestRenderSetArcRows(t *testing.T) {
	out := RenderSet(comm.MustParse("(.)."))
	if !strings.Contains(out, `\_/`) {
		t.Errorf("span arc not drawn:\n%s", out)
	}
}

func TestRenderSetEmpty(t *testing.T) {
	s := comm.NewSet(4)
	out := RenderSet(s)
	if !strings.Contains(out, "PEs :") {
		t.Errorf("empty set should still render the PE row:\n%s", out)
	}
	if !strings.Contains(out, "gaps: ...") {
		t.Errorf("empty set should render an all-idle congestion profile:\n%s", out)
	}
	if strings.Contains(out, "d=") {
		t.Errorf("empty set has no arcs, no depth rows expected:\n%s", out)
	}
}

func TestRenderSetNotWellNested(t *testing.T) {
	s := comm.NewSet(4, comm.Comm{Src: 0, Dst: 2}, comm.Comm{Src: 1, Dst: 3})
	out := RenderSet(s)
	if !strings.Contains(out, "gaps:") {
		t.Errorf("profile missing for non-well-nested set:\n%s", out)
	}
	if strings.Contains(out, "d=0") {
		t.Errorf("depth rows must be skipped for crossing sets:\n%s", out)
	}
}

func TestRenderSetWideCongestion(t *testing.T) {
	// Gap congestion above 9 renders as '+'.
	s, err := comm.NestedChain(32, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderSet(s), "+") {
		t.Error("congestion > 9 should render '+'")
	}
}

func TestRenderTree(t *testing.T) {
	s := comm.MustParse("(())")
	tr := topology.MustNew(4)
	out := RenderTree(tr, nil, s)
	for _, want := range []string{"S0", "S1", "D2", "D3"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderTree missing %q:\n%s", want, out)
		}
	}
	cfg := circuit.RoundConfig{}
	out = RenderTree(tr, cfg, s)
	if !strings.Contains(out, "·") {
		t.Errorf("idle switches should render ·:\n%s", out)
	}
}

func TestRenderStored(t *testing.T) {
	tr := topology.MustNew(4)
	stored := make([]ctrl.Stored, 4)
	stored[1] = ctrl.Stored{M: 1}
	out := RenderStored(tr, stored, comm.MustParse("(())"))
	if !strings.Contains(out, "M:1") {
		t.Errorf("RenderStored missing state:\n%s", out)
	}
}

func TestLoggerEndToEnd(t *testing.T) {
	s := comm.MustParse("(())")
	tr := topology.MustNew(4)
	var buf bytes.Buffer
	l := NewLogger(tr, s, &buf)
	l.Words = true
	l.Trees = true
	e, err := padr.New(tr, s, padr.WithObserver(l.Observer()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"--- round 0 ---", "--- round 1 ---", "performed: 0->3", "performed: 1->2", "[s,null]", "l->r"} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q:\n%s", want, out)
		}
	}
	if err := l.VerifyDataPlane(); err != nil {
		t.Fatal(err)
	}
}

func TestRenderGantt(t *testing.T) {
	s := comm.MustParse("((.)((.)..).)(.)")
	tr := topology.MustNew(16)
	e, err := padr.New(tr, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderGantt(res.Schedule)
	for _, want := range []string{"PEs :", "r=0", "r=1", `\`, "/"} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines != 1+res.Rounds {
		t.Errorf("gantt has %d lines, want %d", lines, 1+res.Rounds)
	}
}
