package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/march"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the repetition began; Parent is the ID of the span that caused
// it (the repetition's root span, or a request span for the serve
// workload); Group names the repetition or request it belongs to.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Group  string `json:"group"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Cells is the array size of a march-engine call (rows × cols).
	Cells int64 `json:"cells,omitempty"`
}

// rootSpan is the ID of every repetition's root span.
const rootSpan = 1

// tracer keeps the spans of one repetition in memory. A nil tracer
// means an untraced repetition: the decorators below then return the
// wrapped value itself, so untraced runs execute exactly the library
// code.
type tracer struct {
	t0    time.Time
	group string

	mu    sync.Mutex
	spans []span

	// unsupported counts march-engine calls answered with
	// march.ErrEngineUnsupported (the caller falls back to the scalar
	// engine).
	unsupported atomic.Int64
}

func newTracer(group string) *tracer {
	return &tracer{t0: time.Now(), group: group}
}

// add stores s under a fresh ID, which it returns.
func (tr *tracer) add(s span) int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s.ID = int64(len(tr.spans)) + rootSpan + 1
	if s.Group == "" {
		s.Group = tr.group
	}
	tr.spans = append(tr.spans, s)
	return s.ID
}

// record stores a span under the root that started at start and ends
// now.
func (tr *tracer) record(name string, start time.Time, cells int64) {
	end := time.Now()
	tr.add(span{Name: name, Parent: rootSpan, Start: tr.ns(start), End: tr.ns(end), Cells: cells})
}

func (tr *tracer) ns(t time.Time) int64 { return t.Sub(tr.t0).Nanoseconds() }

// finish closes the repetition with its root span and returns every
// span recorded.
func (tr *tracer) finish(end time.Time) []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	root := span{Name: "rep", ID: rootSpan, Group: tr.group, Start: 0, End: tr.ns(end)}
	return append([]span{root}, tr.spans...)
}

// factory decorates an analysis.Factory so that building a memory and
// every call on the memory built is a span named "<layer>.<call>"
// (snapshots and restores are named "replay.*": the replay cache is the
// only caller).
func (tr *tracer) factory(layer string, f analysis.Factory) analysis.Factory {
	if tr == nil {
		return f
	}
	names := &callNames{layer + ".build", layer + ".write", layer + ".read", layer + ".idle", layer + ".set", layer + ".release"}
	return func(open defect.Open, rdef float64) (analysis.Memory, error) {
		start := time.Now()
		m, err := f(open, rdef)
		tr.record(names.build, start, 0)
		if err != nil {
			return nil, err
		}
		return wrapMemory(&tracedMemory{inner: m, tr: tr, names: names})
	}
}

// callNames are one layer's span names, built once per factory.
type callNames struct{ build, write, read, idle, set, release string }

// tracedMemory times the analysis.Memory methods.
type tracedMemory struct {
	inner analysis.Memory
	tr    *tracer
	names *callNames
}

func (m *tracedMemory) Write(cell, bit int) error {
	defer m.tr.record(m.names.write, time.Now(), 0)
	return m.inner.Write(cell, bit)
}

func (m *tracedMemory) Read(cell int) (int, error) {
	defer m.tr.record(m.names.read, time.Now(), 0)
	return m.inner.Read(cell)
}

func (m *tracedMemory) Idle() error {
	defer m.tr.record(m.names.idle, time.Now(), 0)
	return m.inner.Idle()
}

func (m *tracedMemory) ForceVictim(bit int) {
	defer m.tr.record(m.names.set, time.Now(), 0)
	m.inner.ForceVictim(bit)
}

func (m *tracedMemory) SetFloat(nets []string, u float64) {
	defer m.tr.record(m.names.set, time.Now(), 0)
	m.inner.SetFloat(nets, u)
}

func (m *tracedMemory) VictimBit() int { return m.inner.VictimBit() }

func (m *tracedMemory) Snapshot() any {
	defer m.tr.record("replay.snapshot", time.Now(), 0)
	return m.inner.(analysis.Snapshotter).Snapshot()
}

func (m *tracedMemory) Restore(state any) {
	defer m.tr.record("replay.restore", time.Now(), 0)
	m.inner.(analysis.Snapshotter).Restore(state)
}

func (m *tracedMemory) Release() {
	defer m.tr.record(m.names.release, time.Now(), 0)
	m.inner.(analysis.Releaser).Release()
}

func (m *tracedMemory) NetVoltage(net string) float64 {
	return m.inner.(analysis.VoltageProber).NetVoltage(net)
}

// wrapMemory exposes exactly the optional Memory interfaces the wrapped
// memory implements: the pipeline type-asserts on them, and a wrapper
// that gained or lost one would change which code paths run. The
// library's memories have Snapshotter alone (analytical) or all three
// (electrical); a memory with none is wrapped plainly, and any other set
// is refused.
func wrapMemory(t *tracedMemory) (analysis.Memory, error) {
	_, s := t.inner.(analysis.Snapshotter)
	_, r := t.inner.(analysis.Releaser)
	_, v := t.inner.(analysis.VoltageProber)
	switch {
	case s && r && v:
		return t, nil
	case s && !r && !v:
		return struct {
			analysis.Memory
			snapshotter
		}{t, t}, nil
	case !s && !r && !v:
		return struct{ analysis.Memory }{t}, nil
	}
	return nil, fmt.Errorf("benchmark: cannot trace a memory with Snapshotter=%v Releaser=%v VoltageProber=%v", s, r, v)
}

// snapshotter is analysis.Snapshotter without the embedded Memory, so
// that wrapMemory can add it beside one.
type snapshotter interface {
	Snapshot() any
	Restore(state any)
}

// engine decorates a march.Engine so that every call is a span named
// "<engine name>.detects" or "<engine name>.twocell". The result keeps
// TwoCellOffsetEngine exactly when the wrapped engine has it.
func (tr *tracer) engine(e march.Engine) march.Engine {
	if tr == nil {
		return e
	}
	t := tracedEngine{inner: e, tr: tr}
	if oe, ok := e.(march.TwoCellOffsetEngine); ok {
		return tracedOffsetEngine{tracedEngine: t, offsets: oe}
	}
	return t
}

type tracedEngine struct {
	inner march.Engine
	tr    *tracer
}

func (e tracedEngine) Name() string { return e.inner.Name() }

func (e tracedEngine) done(call string, start time.Time, rows, cols int, err error) {
	if errors.Is(err, march.ErrEngineUnsupported) {
		e.tr.unsupported.Add(1)
	}
	e.tr.record(e.inner.Name()+"."+call, start, int64(rows)*int64(cols))
}

func (e tracedEngine) Detects(t march.Test, rows, cols int, entry march.CatalogEntry) (march.Detection, error) {
	start := time.Now()
	d, err := e.inner.Detects(t, rows, cols, entry)
	e.done("detects", start, rows, cols, err)
	return d, err
}

func (e tracedEngine) DetectsTwoCell(t march.Test, rows, cols int, entry march.TwoCellCatalogEntry) (march.Detection, error) {
	start := time.Now()
	d, err := e.inner.DetectsTwoCell(t, rows, cols, entry)
	e.done("twocell", start, rows, cols, err)
	return d, err
}

type tracedOffsetEngine struct {
	tracedEngine
	offsets march.TwoCellOffsetEngine
}

func (e tracedOffsetEngine) DetectsTwoCellOffsets(t march.Test, rows, cols int, entry march.TwoCellCatalogEntry, offsets []int) (march.Detection, error) {
	start := time.Now()
	d, err := e.offsets.DetectsTwoCellOffsets(t, rows, cols, entry, offsets)
	e.done("twocell", start, rows, cols, err)
	return d, err
}

// union returns the total length of the union of the spans' intervals:
// the wall time during which at least one of them was running.
func union(spans []span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		iv = append(iv, [2]int64{s.Start, s.End})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	for i, v := range iv {
		switch {
		case i == 0:
			lo, hi = v[0], v[1]
		case v[0] > hi:
			total += hi - lo
			lo, hi = v[0], v[1]
		case v[1] > hi:
			hi = v[1]
		}
	}
	if len(iv) > 0 {
		total += hi - lo
	}
	return total
}
