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

func TestByName(t *testing.T) {
	for _, name := range propagate.Names {
		x, ok := propagate.ByName(name)
		if !ok || propagate.Names[x] != name {
			t.Fatalf("ByName(%q) broken", name)
		}
	}
	if x, ok := propagate.ByName(""); !ok || propagate.Names[x] != "bulksync" {
		t.Fatal("empty name must select bulksync")
	}
	if _, ok := propagate.ByName("nope"); ok {
		t.Fatal("accepted unknown backend")
	}
}

func TestAggregatePairs(t *testing.T) {
	raw := []propagate.PairWords{
		{Src: 2, Dst: 1, Words: 3},
		{Src: 0, Dst: 1, Words: 1},
		{Src: 2, Dst: 1, Words: 2},
		{Src: 0, Dst: 2, Words: 4},
	}
	got := propagate.AggregatePairs(raw)
	want := []propagate.PairWords{
		{Src: 0, Dst: 1, Words: 1},
		{Src: 0, Dst: 2, Words: 4},
		{Src: 2, Dst: 1, Words: 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if propagate.AggregatePairs(nil) != nil {
		t.Fatal("empty input must aggregate to nil")
	}
}

// TestRunMatchesSerialFixpoint checks the engine's fixpoint against the
// worklist replay and its determinism across worker counts, clocks
// included, on a world large enough to engage the parallel rounds.
func TestRunMatchesSerialFixpoint(t *testing.T) {
	const n, p = 4000, 8
	base, frontier := newHyperWorld(n, p, 12345, 20)

	refWorld := base.clone()
	serialFixpoint(refWorld, frontier)

	type outcome struct {
		marked  []bool
		res     propagate.Result
		elapsed float64
	}
	run := func(name string, workers int) outcome {
		w := base.clone()
		clk := machine.NewClock(p)
		x, _ := propagate.ByName(name)
		res := propagate.Engine{Exchange: x, Workers: workers}.Run(w, slices.Clone(frontier), clk, machine.SP2())
		return outcome{w.marked, res, clk.Elapsed()}
	}

	for _, name := range propagate.Names {
		ref := run(name, 1)
		if !reflect.DeepEqual(ref.marked, refWorld.marked) {
			t.Fatalf("%s: mark set diverges from the serial replay", name)
		}
		if ref.res.Rounds < 2 || ref.res.Marked == 0 || ref.res.Msgs == 0 {
			t.Fatalf("%s: fixture not interesting: %+v", name, ref.res)
		}
		if ref.res.Ops.Crit != ref.res.Ops.Total {
			t.Fatalf("%s: workers=1 must report Crit == Total: %+v", name, ref.res.Ops)
		}
		for _, w := range []int{2, 4, 8} {
			got := run(name, w)
			if !reflect.DeepEqual(got.marked, ref.marked) {
				t.Errorf("%s workers=%d: mark set diverges", name, w)
			}
			if got.elapsed != ref.elapsed {
				t.Errorf("%s workers=%d: modeled clock diverges: %g vs %g",
					name, w, got.elapsed, ref.elapsed)
			}
			norm := got.res
			norm.Ops.Crit, norm.Ops.MemCrit = ref.res.Ops.Crit, ref.res.Ops.MemCrit
			if !reflect.DeepEqual(norm, ref.res) {
				t.Errorf("%s workers=%d: Result diverges:\n got %+v\nwant %+v",
					name, w, got.res, ref.res)
			}
		}
	}
}

// TestAggregatedChargeSemantics pins the two exchange models on a known
// batch list: bulksync pays one Tsetup per pair on the sender, aggregated
// one per active source plus a per-word drain on the destination.
func TestAggregatedChargeSemantics(t *testing.T) {
	mdl := machine.SP2()
	pairs := []propagate.PairWords{
		{Src: 0, Dst: 1, Words: 10},
		{Src: 0, Dst: 2, Words: 5},
		{Src: 2, Dst: 0, Words: 1},
	}

	clk := machine.NewClock(3)
	ch := propagate.Engine{Exchange: machine.ExchangeFlat}.ChargeExchange(clk, mdl, pairs)
	if ch.Msgs != 3 || ch.Words != 16 {
		t.Fatalf("bulksync counted %d msgs / %d words", ch.Msgs, ch.Words)
	}
	if got, want := ch.SetupTime, 3*mdl.Tsetup; got != want {
		t.Errorf("bulksync reported setup time %g, want %g", got, want)
	}
	if got, want := clk.Rank(0), mdl.MsgTime(10)+mdl.MsgTime(5); got != want {
		t.Errorf("bulksync rank 0 charged %g, want %g", got, want)
	}
	if clk.Rank(1) != 0 {
		t.Error("bulksync must not charge receivers")
	}

	clk = machine.NewClock(3)
	ch = propagate.Engine{Exchange: machine.ExchangeAggregated}.ChargeExchange(clk, mdl, pairs)
	if ch.Msgs != 2 || ch.Words != 16 {
		t.Fatalf("aggregated counted %d msgs / %d words", ch.Msgs, ch.Words)
	}
	if got, want := ch.SetupTime, 2*mdl.Tsetup; got != want {
		t.Errorf("aggregated reported setup time %g, want %g", got, want)
	}
	if got, want := clk.Rank(0), mdl.MsgTime(15)+1*mdl.Tlat; got != want {
		t.Errorf("aggregated rank 0 charged %g, want %g", got, want)
	}
	if got, want := clk.Rank(1), 10*mdl.Tlat; got != want {
		t.Errorf("aggregated rank 1 charged %g, want %g", got, want)
	}
}

// TestEmptyFrontier checks the degenerate run: no rounds, no traffic, no
// ops.
func TestEmptyFrontier(t *testing.T) {
	w, _ := newHyperWorld(100, 2, 1, 0)
	clk := machine.NewClock(2)
	res := propagate.Engine{Workers: 1}.Run(w, nil, clk, machine.SP2())
	if !reflect.DeepEqual(res, propagate.Result{}) {
		t.Fatalf("empty frontier produced %+v", res)
	}
	if clk.Elapsed() != 0 {
		t.Fatal("empty frontier charged time")
	}
}
