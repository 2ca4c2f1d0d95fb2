// Package obsflag wires the observability CLI flags shared by the
// command-line tools (-trace, -report, -metrics-addr) into one stack: a
// composed tracer, an end-of-run report writer, and an HTTP metrics
// endpoint, all living as long as the process. Register installs the
// flags, Open builds the stack, Setup.Tracer feeds it and Setup.Close
// flushes it. A resident service builds its own per-job sinks instead
// (internal/sweepd).
package obsflag

import (
	"flag"
	"fmt"
	"os"

	"simgen/internal/obs"
)

// Flags holds the raw values of the observability flags.
type Flags struct {
	Trace       string
	Report      string
	MetricsAddr string
}

// Register installs the observability flags on fs and returns the holder
// their values are parsed into.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Trace, "trace", "", "write a JSONL event trace to this file")
	fs.StringVar(&f.Report, "report", "", "write a structured end-of-run report (JSON) to this file")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve runtime metrics over HTTP on this address (e.g. localhost:0)")
	return f
}

// Setup is the live observability stack built from parsed flags. Tracer is
// never nil: with every flag off it is obs.Nop and costs nothing.
type Setup struct {
	Tracer obs.Tracer

	jsonl     *obs.JSONL
	traceF    *os.File
	collector *obs.Collector
	reportF   *os.File
	stop      func() error
}

// Open materializes the stack: the metrics endpoint starts listening (its
// bound address is printed to stderr, so ":0" works for tests), and the
// trace and report files are created (and truncated) up front, so an
// unwritable path is a usage error before the run, not a surprise after an
// hour of sweeping. Tracer composes every enabled sink.
func (f *Flags) Open() (*Setup, error) {
	s := &Setup{}
	var tracers []obs.Tracer
	fail := func(err error) (*Setup, error) {
		s.Close()
		return nil, err
	}
	if f.MetricsAddr != "" {
		m := obs.NewMetrics()
		addr, stop, err := m.Serve(f.MetricsAddr)
		if err != nil {
			return nil, err
		}
		s.stop = stop
		fmt.Fprintf(os.Stderr, "metrics: listening on http://%s/metrics\n", addr)
		tracers = append(tracers, obs.NewMetricsTracer(m))
	}
	if f.Trace != "" {
		tf, err := os.Create(f.Trace)
		if err != nil {
			return fail(err)
		}
		s.traceF = tf
		s.jsonl = obs.NewJSONL(tf)
		tracers = append(tracers, s.jsonl)
	}
	if f.Report != "" {
		rf, err := os.Create(f.Report)
		if err != nil {
			return fail(err)
		}
		s.reportF = rf
		s.collector = obs.NewCollector()
		tracers = append(tracers, s.collector)
	}
	s.Tracer = obs.Multi(tracers...)
	return s, nil
}

// Close flushes and tears the stack down: the report is rendered and its
// file closed, the trace file is closed (surfacing any deferred write
// error), then the metrics endpoint is shut. Close is idempotent and
// returns the first error encountered.
func (s *Setup) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.reportF != nil {
		keep(s.collector.Report().WriteJSON(s.reportF))
		keep(s.reportF.Close())
		s.reportF = nil
	}
	if s.traceF != nil {
		keep(s.jsonl.Err())
		keep(s.traceF.Close())
		s.traceF = nil
	}
	if s.stop != nil {
		keep(s.stop())
		s.stop = nil
	}
	return first
}
