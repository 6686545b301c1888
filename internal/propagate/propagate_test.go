package propagate_test

import (
	"reflect"
	"slices"
	"testing"

	"plum/internal/machine"
	"plum/internal/propagate"
)

// hyperWorld is a synthetic element/edge incidence graph with a monotone
// upgrade rule mimicking the tet pattern closure: once two or more of an
// element's edges are marked, the element requires all of them — so a
// dense seed cascades to a fixpoint over several rounds.
type hyperWorld struct {
	p         int
	elemEdges [][]int32
	edgeElems [][]int32
	owner     []int32
	marked    []bool
}

// splitmix64 is the deterministic hash driving the fuzzed topologies (no
// RNG state, so construction is independent of evaluation order).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4b9b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newHyperWorld builds a world of n elements over an n-sized edge pool:
// element i touches up to six hashed edges, owners are block-distributed
// over p ranks, and edges hashing below the markFrac threshold are
// pre-marked.
func newHyperWorld(n, p int, seed uint64, markFrac uint64) (*hyperWorld, []int32) {
	w := &hyperWorld{
		p:         p,
		elemEdges: make([][]int32, n),
		edgeElems: make([][]int32, n),
		owner:     make([]int32, n),
		marked:    make([]bool, n),
	}
	for i := 0; i < n; i++ {
		w.owner[i] = int32(i * p / n)
		k := 2 + int(splitmix64(seed+uint64(i))%5) // 2..6 edges
		var es []int32
		for j := 0; j < k; j++ {
			es = append(es, int32(splitmix64(seed^0xabcd+uint64(i*7+j))%uint64(n)))
		}
		slices.Sort(es)
		es = slices.Compact(es)
		w.elemEdges[i] = es
		for _, e := range es {
			w.edgeElems[e] = append(w.edgeElems[e], int32(i))
		}
	}
	var frontier []int32
	for e := 0; e < n; e++ {
		if splitmix64(seed^0x5eed+uint64(e))%100 < markFrac {
			w.marked[e] = true
			frontier = append(frontier, w.edgeElems[e]...)
		}
	}
	return w, frontier
}

func (w *hyperWorld) clone() *hyperWorld {
	c := *w
	c.marked = slices.Clone(w.marked)
	return &c
}

func (w *hyperWorld) Owner(el int32) int32 { return w.owner[el] }

func (w *hyperWorld) Propose(el int32, buf []int32) []int32 {
	es := w.elemEdges[el]
	cnt := 0
	for _, e := range es {
		if w.marked[e] {
			cnt++
		}
	}
	if cnt >= 2 {
		for _, e := range es {
			if !w.marked[e] {
				buf = append(buf, e)
			}
		}
	}
	return buf
}

func (w *hyperWorld) Commit(e int32) { w.marked[e] = true }

func (w *hyperWorld) Reach(e int32, elems []int32) []int32 {
	return append(elems, w.edgeElems[e]...)
}

func (w *hyperWorld) SPL(e int32, spl []int32) []int32 {
	for _, el := range w.edgeElems[e] {
		spl = append(spl, w.owner[el])
	}
	slices.Sort(spl)
	return slices.Compact(spl)
}

// serialFixpoint is the reference replay: a plain worklist loop over the
// same World surface, no rounds, no chunking.
func serialFixpoint(w *hyperWorld, frontier []int32) {
	queue := slices.Clone(frontier)
	var eb []int32
	for len(queue) > 0 {
		el := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		eb = w.Propose(el, eb[:0])
		for _, e := range eb {
			if !w.marked[e] {
				w.Commit(e)
				queue = append(queue, w.edgeElems[e]...)
			}
		}
	}
}

// TestRunMatchesSerialFixpoint checks the engine's fixpoint against the
// worklist replay.
func TestRunMatchesSerialFixpoint(t *testing.T) {
	const n, p = 4000, 8
	base, frontier := newHyperWorld(n, p, 12345, 20)

	refWorld := base.clone()
	serialFixpoint(refWorld, frontier)

	w := base.clone()
	res := propagate.Engine{}.Run(w, slices.Clone(frontier), machine.NewClock(p), machine.SP2())
	if !reflect.DeepEqual(w.marked, refWorld.marked) {
		t.Fatal("mark set diverges from the serial replay")
	}
	if res.Rounds < 2 || res.Marked == 0 || res.Msgs == 0 {
		t.Fatalf("fixture not interesting: %+v", res)
	}
}

// TestWarmRunAllocatesNothing pins the buffer reuse: an engine handed a
// kept Scratch, its seed built in the Scratch's buffer, allocates nothing
// on a warm Run, and reaches the same fixpoint and counts as one on fresh
// buffers.
func TestWarmRunAllocatesNothing(t *testing.T) {
	const n, p = 1000, 8
	base, frontier := newHyperWorld(n, p, 12345, 20)
	fresh := base.clone()
	want := propagate.Engine{}.Run(fresh, slices.Clone(frontier), machine.NewClock(p), machine.SP2())
	if want.Rounds < 2 || want.Msgs == 0 {
		t.Fatalf("fixture not interesting: %+v", want)
	}

	var s propagate.Scratch
	eng := propagate.Engine{Scratch: &s}
	clk := machine.NewClock(p)
	w := base.clone()
	run := func() propagate.Result {
		copy(w.marked, base.marked)
		return eng.Run(w, append(s.Seed(), frontier...), clk, machine.SP2())
	}
	if got := run(); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(w.marked, fresh.marked) {
		t.Fatalf("kept scratch: %+v, fresh buffers: %+v", got, want)
	}
	if allocs := testing.AllocsPerRun(3, func() { run() }); allocs != 0 {
		t.Errorf("warm Run allocated %v times", allocs)
	}
	if got := run(); !reflect.DeepEqual(got, want) {
		t.Errorf("warm rerun: %+v, want %+v", got, want)
	}
}

// TestChargeExchangeSemantics pins the notification exchange's message
// model on a known batch list: one Tsetup per pair, charged to the sender.
func TestChargeExchangeSemantics(t *testing.T) {
	mdl := machine.SP2()
	pairs := []machine.Flow{
		{Src: 0, Dst: 1, Words: 10},
		{Src: 0, Dst: 2, Words: 5},
		{Src: 2, Dst: 0, Words: 1},
	}

	clk := machine.NewClock(3)
	ch := propagate.Engine{}.ChargeExchange(clk, mdl, pairs)
	if ch.Msgs != 3 || ch.Words != 16 {
		t.Fatalf("flat counted %d msgs / %d words", ch.Msgs, ch.Words)
	}
	if got, want := ch.SetupTime, 3*mdl.Tsetup; got != want {
		t.Errorf("flat reported setup time %g, want %g", got, want)
	}
	if got, want := clk.Rank(0), mdl.MsgTime(10)+mdl.MsgTime(5); got != want {
		t.Errorf("flat rank 0 charged %g, want %g", got, want)
	}
	if clk.Rank(1) != 0 {
		t.Error("flat must not charge receivers")
	}
}

// TestEmptyFrontier checks the degenerate run: no rounds, no traffic, no
// ops, no allocation.
func TestEmptyFrontier(t *testing.T) {
	w, _ := newHyperWorld(100, 2, 1, 0)
	clk := machine.NewClock(2)
	res := propagate.Engine{}.Run(w, nil, clk, machine.SP2())
	if !reflect.DeepEqual(res, propagate.Result{}) {
		t.Fatalf("empty frontier produced %+v", res)
	}
	if clk.Elapsed() != 0 {
		t.Fatal("empty frontier charged time")
	}
	if allocs := testing.AllocsPerRun(10, func() { propagate.Engine{}.Run(w, nil, clk, machine.SP2()) }); allocs != 0 {
		t.Errorf("empty frontier allocated %v times", allocs)
	}
}
