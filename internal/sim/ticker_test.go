package sim

import (
	"fmt"
	"math"
	"testing"
)

// refItem is one pending firing in the reference model: an ordinary event
// or a tick.
type refItem struct {
	at   Time
	seq  uint64
	id   int
	tk   *refTicker // non-nil for ticks
	gone bool       // executed or cancelled
}

type refTicker struct {
	period  Time
	id      int
	item    *refItem // the armed tick, nil while firing or once stopped
	stopped bool
}

// refEngine is the naive reference: one unsorted list searched for the
// (at, seq) minimum, in which a ticker re-arms as an ordinary item after
// its callback returns. It mirrors Engine's public contract, not its data
// structures.
type refEngine struct {
	clock    Time
	nextSeq  uint64
	cur      uint64 // sequence number of the executing item
	executed uint64
	stopped  bool
	items    []*refItem
	ticks    int // armed ticks among items
	fire     func(id int)
}

func (r *refEngine) push(at Time, seq uint64, id int, tk *refTicker) *refItem {
	if at < r.clock {
		panic("reference: scheduling in the past")
	}
	it := &refItem{at: at, seq: seq, id: id, tk: tk}
	r.items = append(r.items, it)
	if tk != nil {
		tk.item = it
		r.ticks++
	}
	return it
}

func (r *refEngine) remove(it *refItem) {
	it.gone = true
	for i, o := range r.items {
		if o == it {
			r.items = append(r.items[:i], r.items[i+1:]...)
			break
		}
	}
	if it.tk != nil {
		it.tk.item = nil
		r.ticks--
	}
}

func (r *refEngine) run(until Time) Time {
	r.stopped = false
	for len(r.items) > 0 && !r.stopped {
		if until == MaxTime && len(r.items) == r.ticks {
			break
		}
		m := r.items[0]
		for _, o := range r.items[1:] {
			if o.at < m.at || (o.at == m.at && o.seq < m.seq) {
				m = o
			}
		}
		if m.at > until {
			r.clock = until
			return r.clock
		}
		r.remove(m)
		r.clock, r.cur = m.at, m.seq
		r.executed++
		r.fire(m.id)
		if tk := m.tk; tk != nil && !tk.stopped {
			r.push(m.at+tk.period, r.nextSeq, tk.id, tk)
			r.nextSeq++
		}
	}
	if r.clock < until && until != MaxTime && len(r.items) == 0 {
		r.clock = until
	}
	return r.clock
}

// sched is the surface the random driver exercises, implemented by both
// the real engine and the reference.
type sched interface {
	now() Time
	curSeq() uint64
	at(t Time, id int) func() bool // returns the cancel function
	reserveSeq() uint64
	atSeq(t Time, id int, seq uint64) func() bool
	newTicker(period Time, id int) func() // returns Stop
	stop()
	run(until Time) Time
	counts() (executed uint64, pending, live int)
}

type engineSched struct {
	e    *Engine
	fire func(id int)
}

func (s *engineSched) now() Time          { return s.e.Now() }
func (s *engineSched) curSeq() uint64     { return s.e.CurSeq() }
func (s *engineSched) reserveSeq() uint64 { return s.e.ReserveSeq() }
func (s *engineSched) stop()              { s.e.Stop() }
func (s *engineSched) run(until Time) Time {
	return s.e.Run(until)
}
func (s *engineSched) at(t Time, id int) func() bool {
	return s.e.At(t, func(Time) { s.fire(id) }).Cancel
}
func (s *engineSched) atSeq(t Time, id int, seq uint64) func() bool {
	return s.e.AtSeq(t, func(Time) { s.fire(id) }, seq).Cancel
}
func (s *engineSched) newTicker(period Time, id int) func() {
	return NewTicker(s.e, period, func(Time) { s.fire(id) }).Stop
}
func (s *engineSched) counts() (uint64, int, int) {
	return s.e.Executed(), s.e.Pending(), live(s.e)
}

// live counts pending events other than armed ticks: the work that keeps
// Run(MaxTime) going.
func live(e *Engine) int { return e.pending - e.armed }

func (r *refEngine) now() Time          { return r.clock }
func (r *refEngine) curSeq() uint64     { return r.cur }
func (r *refEngine) stop()              { r.stopped = true }
func (r *refEngine) reserveSeq() uint64 { r.nextSeq++; return r.nextSeq - 1 }
func (r *refEngine) at(t Time, id int) func() bool {
	it := r.push(t, r.nextSeq, id, nil)
	r.nextSeq++
	return r.cancelFn(it)
}
func (r *refEngine) atSeq(t Time, id int, seq uint64) func() bool {
	return r.cancelFn(r.push(t, seq, id, nil))
}
func (r *refEngine) cancelFn(it *refItem) func() bool {
	return func() bool {
		if it.gone {
			return false
		}
		r.remove(it)
		return true
	}
}
func (r *refEngine) newTicker(period Time, id int) func() {
	tk := &refTicker{period: period, id: id}
	r.push(r.clock+period, r.nextSeq, id, tk)
	r.nextSeq++
	return func() {
		tk.stopped = true
		if tk.item != nil {
			r.remove(tk.item)
		}
	}
}
func (r *refEngine) counts() (uint64, int, int) {
	return r.executed, len(r.items), len(r.items) - r.ticks
}

// fireRec is one executed firing as the driver saw it.
type fireRec struct {
	now Time
	seq uint64
	id  int
}

// randDriver issues a seeded random mix of scheduling operations against
// one sched, both from the top level and from inside callbacks, and
// records every firing. Two drivers with the same seed issue the same
// operations as long as their scheds execute identically.
type randDriver struct {
	s        sched
	r        *Rand
	trace    []fireRec
	budget   int            // operations left; callbacks stop adding work at 0
	cancels  []func() bool  // handles, some long spent
	stops    []func()       // ticker Stops, some already called
	reserved []uint64       // ReserveSeq numbers not yet used by atSeq
	tickLeft map[int]int    // ticker id → firings before it stops itself
	tickStop map[int]func() // ticker id → its Stop
	ids      int
}

// delta draws a scheduling offset: mostly a coarse 5 ns grid so that ticks
// and events collide on the same instant, sometimes a span that lands in a
// higher wheel level or the far heap.
func (d *randDriver) delta() Time {
	switch d.r.Intn(10) {
	case 0:
		return []Time{4096, 3 * Millisecond, 2 * Second, 10 * 60 * Second}[d.r.Intn(4)]
	case 1:
		return Time(d.r.Intn(50))
	default:
		return 5 * Time(d.r.Intn(10))
	}
}

func (d *randDriver) ops(n int) {
	for i := 0; i < n && d.budget > 0; i++ {
		d.budget--
		now := d.s.now()
		d.ids++
		id := d.ids
		switch d.r.Intn(9) {
		case 0, 1:
			d.cancels = append(d.cancels, d.s.at(now+d.delta(), id))
		case 2:
			if k := len(d.reserved); k > 0 {
				seq := d.reserved[k-1]
				d.reserved = d.reserved[:k-1]
				d.cancels = append(d.cancels, d.s.atSeq(now+d.delta(), id, seq))
			} else {
				d.reserved = append(d.reserved, d.s.reserveSeq())
			}
		case 3:
			if k := len(d.cancels); k > 0 {
				d.cancels[d.r.Intn(k)]()
			}
		case 4:
			// A burst of events at ascending, often equal, times.
			t := now
			for j := 1 + d.r.Intn(4); j > 0; j-- {
				t += 5 * Time(d.r.Intn(4))
				d.cancels = append(d.cancels, d.s.at(t, id))
			}
		case 5, 6:
			period := 5 * Time(1+d.r.Intn(8))
			if d.r.Intn(6) == 0 {
				period = 4096 + Time(d.r.Intn(3000))
			}
			stop := d.s.newTicker(period, id)
			d.stops = append(d.stops, stop)
			d.tickStop[id] = stop
			d.tickLeft[id] = 1 + d.r.Intn(12)
		case 7:
			if k := len(d.stops); k > 0 {
				d.stops[d.r.Intn(k)]()
			}
		case 8:
			if d.r.Intn(4) == 0 {
				d.s.stop()
			}
		}
	}
}

func (d *randDriver) fire(id int) {
	d.trace = append(d.trace, fireRec{d.s.now(), d.s.curSeq(), id})
	if left, ok := d.tickLeft[id]; ok {
		if left <= 1 {
			d.tickStop[id]() // Stop from the ticker's own callback
		}
		d.tickLeft[id] = left - 1
	}
	d.ops(d.r.Intn(3))
}

func newRandDriver(s sched, seed uint64, budget int) *randDriver {
	return &randDriver{s: s, r: NewRand(seed), budget: budget,
		tickLeft: map[int]int{}, tickStop: map[int]func(){}}
}

// TestTickerEquivalenceRandomized drives Engine and the naive reference
// with identical random mixes of At, AtSeq, Cancel, NewTicker,
// Ticker.Stop (including from the ticker's own callback) and Engine.Stop,
// interleaved with bounded and unbounded Runs, and requires identical
// (now, CurSeq, id) traces and identical Executed, Pending and Live.
func TestTickerEquivalenceRandomized(t *testing.T) {
	ties := 0
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			es := &engineSched{e: New()}
			rs := &refEngine{}
			ed := newRandDriver(es, seed, 3000)
			rd := newRandDriver(rs, seed, 3000)
			es.fire, rs.fire = ed.fire, rd.fire
			ctl := NewRand(seed ^ 0x9e3779b97f4a7c15)
			for step := 0; step < 200; step++ {
				n := ctl.Intn(6)
				ed.ops(n)
				rd.ops(n)
				until := MaxTime
				if ctl.Intn(3) != 0 {
					until = es.now() + 5*Time(ctl.Intn(40))
				}
				eEnd, rEnd := es.run(until), rs.run(until)
				compareRuns(t, step, ed, rd, eEnd, rEnd)
			}
			// Drain: every ticker stops itself after a bounded number of
			// firings, so a bounded run past the far-heap horizon ends.
			eEnd := es.run(es.now() + 3600*Second)
			rEnd := rs.run(rs.now() + 3600*Second)
			compareRuns(t, -1, ed, rd, eEnd, rEnd)
			if _, pending, _ := es.counts(); pending != 0 {
				t.Fatalf("%d items left after drain", pending)
			}
			ties += tickEventTies(ed)
		})
	}
	// The mix must actually produce the instants where a tick and an
	// event share a timestamp and only seq orders them.
	if ties == 0 {
		t.Fatal("no same-instant tick/event ties were exercised")
	}
}

// tickEventTies counts adjacent firings at the same instant where exactly
// one of the two is a tick.
func tickEventTies(d *randDriver) int {
	n := 0
	for i := 1; i < len(d.trace); i++ {
		a, b := d.trace[i-1], d.trace[i]
		_, aTick := d.tickLeft[a.id]
		_, bTick := d.tickLeft[b.id]
		if a.now == b.now && aTick != bTick {
			n++
		}
	}
	return n
}

func compareRuns(t *testing.T, step int, ed, rd *randDriver, eEnd, rEnd Time) {
	t.Helper()
	if len(ed.trace) != len(rd.trace) {
		t.Fatalf("step %d: engine fired %d, reference %d", step, len(ed.trace), len(rd.trace))
	}
	for i := range ed.trace {
		if ed.trace[i] != rd.trace[i] {
			t.Fatalf("step %d: firing %d diverged: engine %+v, reference %+v", step, i, ed.trace[i], rd.trace[i])
		}
	}
	ex, ep, el := ed.s.counts()
	rx, rp, rl := rd.s.counts()
	if eEnd != rEnd || ed.s.now() != rd.s.now() || ex != rx || ep != rp || el != rl {
		t.Fatalf("step %d: engine end %v now %v executed %d pending %d live %d; reference %v %v %d %d %d",
			step, eEnd, ed.s.now(), ex, ep, el, rEnd, rd.s.now(), rx, rp, rl)
	}
}

// TestRunMaxTimeStopsWithOnlyTicks checks Run(MaxTime) returns at once
// when only armed ticks are pending and leaves them armed for a bounded
// Run.
func TestRunMaxTimeStopsWithOnlyTicks(t *testing.T) {
	e := New()
	ticks := 0
	NewTicker(e, 10, func(Time) { ticks++ })
	NewTicker(e, 25, func(Time) { ticks++ })
	if end := e.Run(MaxTime); end != 0 || ticks != 0 || e.Executed() != 0 {
		t.Fatalf("Run(MaxTime) with only ticks: end %v, ticks %d", end, ticks)
	}
	if e.Pending() != 2 || live(e) != 0 {
		t.Fatalf("pending %d live %d, want 2 armed ticks and nothing live", e.Pending(), live(e))
	}
	e.Run(50) // ticks at 10, 20, 25, 30, 40, 50, 50
	if ticks != 7 || e.Now() != 50 || e.Pending() != 2 {
		t.Fatalf("after Run(50): %d ticks, now %v, pending %d; want 7, 50, 2", ticks, e.Now(), e.Pending())
	}
}

// TestZeroValueEngineTicker checks the package promise that the zero-value
// Engine is ready to use, with a ticker armed before any event exists and
// with events around it.
func TestZeroValueEngineTicker(t *testing.T) {
	var e Engine
	var got []string
	NewTicker(&e, 10, func(Time) { got = append(got, "tick") })
	e.At(10, func(Time) { got = append(got, "ev10") }) // loses the tie: armed later
	e.At(5, func(Time) { got = append(got, "ev5") })
	e.Run(MaxTime)
	want := fmt.Sprint([]string{"ev5", "tick", "ev10"})
	if fmt.Sprint(got) != want {
		t.Fatalf("order %v, want %v", got, want)
	}

	// An engine that never had a ticker, run from its zero value.
	var z Engine
	ran := 0
	z.At(3, func(Time) { ran++ })
	if at, ok := z.NextAt(); !ok || at != 3 {
		t.Fatalf("NextAt = %v %v, want 3 true", at, ok)
	}
	z.Run(MaxTime)
	if ran != 1 || z.Now() != 3 {
		t.Fatalf("ran %d now %v", ran, z.Now())
	}
	if z.tickAt != MaxTime || z.tickSeq != math.MaxUint64 {
		t.Fatal("Run must leave the no-ticker sentinel in place")
	}
}

// TestChainableTo pins the cut-through legality test: chainable exactly
// when (now, t] is event-free — pending ticks included — and t does not
// cross the Run bound.
func TestChainableTo(t *testing.T) {
	e := New()
	var got []bool
	e.At(10, func(Time) {
		got = append(got,
			e.ChainableTo(14), // nothing until 15: ok
			e.ChainableTo(15), // event exactly at 15 blocks
			e.ChainableTo(60), // past it too
		)
	})
	e.At(15, func(Time) {
		got = append(got,
			e.ChainableTo(29), // nothing until the tick at 30: ok
			e.ChainableTo(30), // the pending tick blocks
		)
	})
	NewTicker(e, 30, func(now Time) {
		got = append(got,
			e.ChainableTo(35), // next tick at 60, within bound: ok
			e.ChainableTo(50), // exactly the Run bound: ok (closed interval)
			e.ChainableTo(51), // past the Run bound
		)
	})
	e.Run(50)
	want := []bool{true, false, false, true, false, true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ChainableTo results %v, want %v", got, want)
		}
	}
	// Outside Run nothing is chainable (runUntil is reset).
	if e.ChainableTo(100) {
		t.Fatal("ChainableTo must be false outside Run")
	}
}

// TestNextAtSeesPendingTick checks that NextAt reports an armed tick,
// alone and against queued events on either side of it, and that a
// bounded Run leaves the tick beyond its bound pending.
func TestNextAtSeesPendingTick(t *testing.T) {
	e := New()
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on an empty engine should report nothing")
	}
	tk := NewTicker(e, 30, func(Time) {})
	if at, ok := e.NextAt(); !ok || at != 30 {
		t.Fatalf("NextAt = %v %v, want the tick at 30", at, ok)
	}
	e.At(40, func(Time) {})
	e.At(50, func(Time) {})
	if at, _ := e.NextAt(); at != 30 {
		t.Fatalf("NextAt = %v, want the tick at 30 ahead of later events", at)
	}
	e.At(20, func(Time) {})
	if at, _ := e.NextAt(); at != 20 {
		t.Fatalf("NextAt = %v, want the event at 20 ahead of the tick", at)
	}
	e.Run(45) // runs 20, tick 30, 40; next tick at 60 stays pending
	if at, _ := e.NextAt(); at != 50 || e.Pending() != 2 || live(e) != 1 {
		t.Fatalf("after Run(45): NextAt %v, pending %d, live %d; want 50, 2, 1", at, e.Pending(), live(e))
	}
	e.Run(55)
	if at, ok := e.NextAt(); !ok || at != 60 {
		t.Fatalf("NextAt = %v %v, want the re-armed tick at 60", at, ok)
	}
	tk.Stop()
	if _, ok := e.NextAt(); ok || e.Pending() != 0 {
		t.Fatalf("stopped ticker still visible: pending %d", e.Pending())
	}
}
