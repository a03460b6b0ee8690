package padr

import (
	"errors"

	"cst/internal/fault"
	"cst/internal/obs"
)

// WithRegistry publishes the engine's cst_padr_* metric series to r. A nil
// registry (the default) leaves the engine fully uninstrumented: every
// metric handle is nil and every operation on it is a predictable nil
// check, so the hot scheduling path pays nothing.
func WithRegistry(r *obs.Registry) Option {
	return func(e *Engine) { e.reg = r }
}

// WithTracer streams structured JSONL events (run/round spans, per-switch
// reconfigurations, per-link control words) to t. A nil tracer no-ops.
// The tracer complements — and does not replace — the Observer callbacks:
// Observer delivers typed in-process hooks, the tracer a serialized record.
func WithTracer(t *obs.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// engineMetrics holds the engine's resolved metric handles. It is a value
// type so the all-nil zero value (from a nil registry) is usable directly:
// e.met.rounds.Inc() is always safe.
type engineMetrics struct {
	runs         *obs.Counter
	errs         *obs.Counter
	rounds       *obs.Counter
	comms        *obs.Counter
	upWords      *obs.Counter
	downWords    *obs.Counter
	activeDown   *obs.Counter
	units        *obs.Counter
	alternations *obs.Counter
	switches     *obs.Counter
	width        *obs.Gauge
	roundLatency *obs.Histogram
	runLatency   *obs.Histogram
}

// newEngineMetrics resolves every cst_padr_* series against r (nil-safe).
// All series are registered up front so a served /metrics endpoint exposes
// the full schema from the first scrape, even before any run completes.
func newEngineMetrics(r *obs.Registry) engineMetrics {
	return engineMetrics{
		runs:         r.Counter("cst_padr_runs_total", "completed or attempted sequential CSA runs"),
		errs:         r.Counter("cst_padr_errors_total", "sequential CSA runs that failed"),
		rounds:       r.Counter("cst_padr_rounds_total", "Phase 2 rounds executed by the sequential engine"),
		comms:        r.Counter("cst_padr_comms_scheduled_total", "communications submitted to the sequential engine"),
		upWords:      r.Counter("cst_padr_phase1_words_total", "Phase 1 control words sent up the tree"),
		downWords:    r.Counter("cst_padr_phase2_words_total", "Phase 2 control words sent down the tree"),
		activeDown:   r.Counter("cst_padr_phase2_active_words_total", "Phase 2 control words other than [null,null]"),
		units:        r.Counter("cst_padr_power_units_total", "power units spent by switch reconfigurations"),
		alternations: r.Counter("cst_padr_alternations_total", "summed per-port connect/disconnect alternations"),
		switches:     r.Counter("cst_padr_switches_total", "switch instances driven, summed over runs (for per-switch averages)"),
		width:        r.Gauge("cst_padr_width", "link width of the most recent communication set"),
		roundLatency: r.Histogram("cst_padr_round_latency_seconds", "wall time per Phase 2 round", nil),
		runLatency:   r.Histogram("cst_padr_run_duration_seconds", "wall time per full run (Phase 1 + Phase 2)", nil),
	}
}

// meterTotals sums the cumulative power meters across the engine's
// switches. With WithCrossbars the meters carry charge from earlier runs,
// so callers diff against a baseline taken in begin to attribute only
// this run's spend.
func (e *Engine) meterTotals() (units, alternations int) {
	for _, sw := range e.switches {
		if sw == nil {
			continue
		}
		units += sw.Units()
		alternations += sw.TotalAlternations()
	}
	return units, alternations
}

// fail routes an engine error through the error counter and tracer before
// returning it. Gauges describing the in-flight run are reset so a scrape
// after a failed run does not report its partial state as live. When the
// injector fired this run, the failure is attributed to injection: counted
// as observed, and — if no earlier layer already pinned a typed fault —
// wrapped as an ErrCorruptWord that records the round where the downstream
// inconsistency surfaced.
func (e *Engine) fail(err error) error {
	if e.inj.Fired() {
		e.inj.Observe()
		var fe *fault.Error
		if !errors.As(err, &fe) {
			err = &fault.Error{Engine: "padr", Round: e.curRound, Kind: fault.ErrCorruptWord, Detail: err}
		}
	}
	e.met.errs.Inc()
	e.met.width.Set(0)
	if e.tracer != nil {
		// A typed fault carries the dying round and implicated node; stamp
		// them on the event so a replayed audit can name the culprit without
		// parsing the error text.
		ev := obs.Event{Type: "run.error", Engine: "padr", Round: -1, Err: err.Error()}
		var fe *fault.Error
		if errors.As(err, &fe) {
			ev.Round = fe.Round
			ev.Node = int(fe.Node)
		}
		e.tracer.Emit(ev)
	}
	return err
}
