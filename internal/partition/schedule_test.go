package partition

import (
	"math"
	"slices"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/meshgen"
)

// TestRebalanceChargeOracle pins the per-rank schedule of one rebalance
// against a schedule written out by hand. The fixture is a 1000-vertex
// path cut into four contiguous parts of 325, 179, 249 and 247 vertices,
// every vertex of weight 4 but the last (2): part weights 1300, 716, 996
// and 986 around a mean of 999.5, so the flows run down a chain of three
// links, 0→1 (300.5), 1→2 (17) and 2→3 (13.5). Each receiver stays
// within the target 1019, and the peels move 75, 4 and 3 vertices and
// dequeue one more each: every part ends within 2 of the mean, and one
// round suffices. No moved vertex borders a third part, so the relabel
// exchange sends nothing.
func TestRebalanceChargeOracle(t *testing.T) {
	sizes := []int{325, 179, 249, 247}
	const k, n = 4, 1000
	g := gridGraph(n, 1, 1, 1)
	owners := make([]int32, 0, n)
	for p, s := range sizes {
		for range s {
			owners = append(owners, int32(p))
		}
	}
	for v := range g.Wcomp {
		g.Wcomp[v] = 4
	}
	g.Wcomp[n-1] = 2
	mdl := machine.SP2()

	var d diffuser
	asg, ops, secs, ok := d.rebalance(g, k, owners, mdl)
	if !ok {
		t.Fatal("refused the fixture's owners")
	}
	if d.moves != 75+4+3 {
		t.Fatalf("the peels moved %d vertices, the fixture expects 82", d.moves)
	}

	var clk [k]float64
	work := func(a int, n int64) { clk[a] += float64(n) * mdl.CompOp }
	wait := func(a int, at float64) { clk[a] = max(clk[a], at) }
	// One dissemination round at distance s: rank a sends words[a] to a+s.
	round := func(s int, words [k]int64) {
		var arrive [k]float64
		for a := range k {
			clk[a] += mdl.MsgTime(words[a])
			arrive[(a+s)%k] = clk[a]
		}
		for a := range k {
			wait(a, arrive[a])
		}
	}

	// The owner scan, each part's vertices and its weight, and the
	// allgather of the weights: one block of one word a rank, then two.
	for a, s := range sizes {
		work(a, int64(s)+1)
	}
	round(1, [k]int64{1, 1, 1, 1})
	round(2, [k]int64{2, 2, 2, 2})

	// The part-graph scan: 1 + deg for each own vertex (the path's two
	// ends have one neighbour), and 3 ops a boundary record and 3 a part
	// for the sorts and the CSR. Parts 0 and 3 record one boundary vertex,
	// parts 1 and 2 two.
	work(0, 325*3-1+3*1+3)
	work(1, 179*3+3*2+3)
	work(2, 249*3+3*2+3)
	work(3, 247*3-1+3*1+3)
	// The allgather of the rows, 2 + the part's degree in the part graph
	// (3, 4, 4, 3 words): each rank's own row, then its and its
	// predecessor's.
	round(1, [k]int64{3, 4, 4, 3})
	round(2, [k]int64{3 + 3, 4 + 3, 4 + 4, 3 + 4})
	// Every rank solves the flows, 4k + E for the setup and E + 6k for
	// each of CG's 3 iterations (the path's Laplacian has three nonzero
	// eigenvalues) with E = 6 entries, and sorts the parts, k·log2 k.
	const solve, sort = 4*k + 6 + 3*(6+6*k), k * 2
	for a := range k {
		work(a, solve+sort)
	}
	// The peels down the chain: one seed, and 1 + deg = 3 for each
	// vertex a peel dequeues; each message carries 2 + deg = 4 words a
	// moved vertex and lands MsgTime after its sender finished.
	work(0, 1+76*3)
	wait(1, clk[0]+mdl.MsgTime(75*4))
	work(1, 1+5*3)
	wait(2, clk[1]+mdl.MsgTime(4*4))
	work(2, 1+4*3)
	wait(3, clk[2]+mdl.MsgTime(3*4))
	// The empty relabel exchange's barrier, the stop test's allreduce of
	// two words, and each rank's op of the test.
	top := slices.Max(clk[:])
	for a := range k {
		clk[a] = top
	}
	round(1, [k]int64{2, 2, 2, 2})
	round(2, [k]int64{2, 2, 2, 2})
	for a := range k {
		work(a, 1)
	}
	// FM, serial.
	want := slices.Max(clk[:]) + float64(ops.Mem)*mdl.MemOp

	if math.Float64bits(secs) != math.Float64bits(want) {
		t.Errorf("charged %.17g s, the hand-written schedule %.17g s", secs, want)
	}
	own := int64(n + k + 3*n - 2 + 3*6 + 3*k + (1 + 76*3) + (1 + 5*3) + (1 + 4*3) + k)
	if got := ops.Total - ops.Mem; got != own+solve+sort || d.once != solve+sort+ops.Mem {
		t.Errorf("compute ops %d (replicated %d), want %d (%d)", got, d.once-ops.Mem, own+solve+sort, solve+sort)
	}
	if imb := Imbalance(g, asg, k); imb > diffuseTol {
		t.Errorf("imbalance %.4f after the round", imb)
	}
}

// rotorRebalance returns the multilevel Repartitioner of the rotor's dual
// graph and its initial cut into k parts, the graph's weights then
// updated by two refinements of the sphere holding 5 % of the edge
// midpoints at the mid-arc point: the rebalance a balance pass of Cycle
// runs.
func rotorRebalance(tb testing.TB, k int) (*Repartitioner, []int32) {
	tb.Helper()
	rp := meshgen.DefaultRotor()
	m := meshgen.RotorDisk(rp)
	g := dual.Build(m)
	r := NewRepartitioner(g, MethodMultilevel, Options{})
	owners := r.Initial(k)
	c := geom.Vec3{X: (rp.R0 + rp.R1) / 2 * math.Cos(rp.Sweep/2), Y: (rp.R0 + rp.R1) / 2 * math.Sin(rp.Sweep/2)}
	a := adapt.New(m)
	for range 2 {
		a.MarkRegion(adapt.SphereForFraction(m, c, 0.05), adapt.MarkRefine)
		a.Refine()
	}
	g.UpdateWeights(m)
	return r, owners
}

// TestRebalanceRotor pins the rebalance of the rotor at k = 64 as Cycle
// runs it: it rebalances (the charge has a refinement share), its
// per-rank charge is below the serial price of the same work, and a
// repeat on the Repartitioner's scratch, the returned assignment
// included, allocates nothing. A diffuser, a clock, an FM or an
// assignment built per call would break it.
func TestRebalanceRotor(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and refines the full rotor")
	}
	const k = 64
	r, owners := rotorRebalance(t, k)
	mdl := machine.SP2()
	_, ops, secs := r.Repartition(k, owners, mdl)
	if ops.Mem == 0 {
		t.Fatal("no FM ran: the fixture did not rebalance")
	}
	if serial := ops.Time(mdl); secs >= serial {
		t.Errorf("per-rank charge %.4g s, not below the serial %.4g s", secs, serial)
	}
	allocs := testing.AllocsPerRun(3, func() { r.Repartition(k, owners, mdl) })
	if allocs > 0 {
		t.Errorf("a repeat rebalance allocates %v times, want 0", allocs)
	}
}
