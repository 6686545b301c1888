package adapt

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"plum/internal/geom"
	"plum/internal/mesh"
	"plum/internal/meshgen"
)

// refineSlab is the slab-scanning refinement the touched set replaced,
// kept as its oracle: every element walk of a round is a scan of the whole
// element slab, the edge walks scans of the mark array.
func (a *Adaptor) refineSlab() RefineStats {
	var st RefineStats
	for {
		round := a.refineRoundSlab()
		st.add(round)
		if round.TotalSubdivided() == 0 && round.FacesSubdivided == 0 {
			return st
		}
	}
}

func (a *Adaptor) refineRoundSlab() RefineStats {
	var st RefineStats
	m := a.M
	var active []mesh.ElemID
	scanActive := func() []mesh.ElemID {
		active = active[:0]
		for ti := range m.Elems {
			if m.Elems[ti].Active() {
				active = append(active, mesh.ElemID(ti))
			}
		}
		return active
	}

	st.Propagations = a.propagate(scanActive())
	var marked []mesh.EdgeID
	for e, mk := range a.marks {
		if mk == MarkRefine {
			marked = append(marked, mesh.EdgeID(e))
		}
	}
	m.Reserve(a.roundGrowth(scanActive(), marked))

	nMarks := len(a.marks)
	for e := 0; e < nMarks; e++ {
		if a.marks[e] != MarkRefine {
			continue
		}
		ed := &m.Edges[e]
		if ed.Dead {
			continue
		}
		if !ed.Bisected() {
			m.BisectEdge(mesh.EdgeID(e))
			st.EdgesBisected++
		}
	}

	nElems := len(m.Elems)
	for ti := 0; ti < nElems; ti++ {
		t := &m.Elems[ti]
		if !t.Active() {
			continue
		}
		var p Pattern
		for le, e := range t.E {
			if m.Edges[e].Bisected() {
				p |= EdgeBit(le)
			}
		}
		if p == 0 {
			continue
		}
		if !p.Valid() {
			panic(fmt.Sprintf("adapt: element %d has invalid final pattern %06b", ti, p))
		}
		kids := a.subdivideElem(mesh.ElemID(ti), p)
		st.Subdivided[p.Kind()]++
		st.NewElems += kids
	}

	st.FacesSubdivided = a.refineFaces()

	for i := range a.marks {
		if a.marks[i] == MarkRefine {
			a.marks[i] = MarkNone
		}
	}
	a.refined = a.refined[:0] // never read on this side; keeps it from growing
	return st
}

// refineChecked runs Refine's rounds, first checking before each that the
// touched set is ascending and holds every active element with a nonzero
// pattern (a slab scan). It returns the statistics and how many rounds
// subdivided something.
func refineChecked(t *testing.T, a *Adaptor) (RefineStats, int) {
	t.Helper()
	var st RefineStats
	for rounds := 0; ; rounds++ {
		touched := a.Touched()
		if !slices.IsSorted(touched) {
			t.Fatalf("round %d: touched set not ascending", rounds)
		}
		for ti := range a.M.Elems {
			el := &a.M.Elems[ti]
			if !el.Active() || a.PatternOf(el) == 0 {
				continue
			}
			if _, ok := slices.BinarySearch(touched, mesh.ElemID(ti)); !ok {
				t.Fatalf("round %d: element %d has pattern %06b but is not in the touched set", rounds, ti, a.PatternOf(el))
			}
		}
		round := a.refineRound()
		st.add(round)
		if round.TotalSubdivided() == 0 && round.FacesSubdivided == 0 {
			return st, rounds
		}
	}
}

// sameSlabs reports the first slab or incidence list in which two meshes
// differ. The records hold each list's place in its block and each child
// range, so comparing them checks the layout and the sibling groups; the
// lists' entries, in order, are compared through the accessors.
func sameSlabs(a, b *mesh.Mesh) error {
	switch {
	case !reflect.DeepEqual(a.Verts, b.Verts):
		return fmt.Errorf("vertex slabs differ")
	case !reflect.DeepEqual(a.Edges, b.Edges):
		return fmt.Errorf("edge slabs differ")
	case !reflect.DeepEqual(a.Elems, b.Elems):
		return fmt.Errorf("element slabs differ")
	case !reflect.DeepEqual(a.Faces, b.Faces):
		return fmt.Errorf("boundary-face slabs differ")
	case !reflect.DeepEqual(a.Bisections, b.Bisections):
		return fmt.Errorf("bisection logs differ")
	}
	for v := range a.Verts {
		if x, y := a.VertEdges(mesh.VertID(v)), b.VertEdges(mesh.VertID(v)); !slices.Equal(x, y) {
			return fmt.Errorf("vertex %d edge lists %v and %v", v, x, y)
		}
	}
	for e := range a.Edges {
		if x, y := a.EdgeElems(mesh.EdgeID(e)), b.EdgeElems(mesh.EdgeID(e)); !slices.Equal(x, y) {
			return fmt.Errorf("edge %d element lists %v and %v", e, x, y)
		}
	}
	return nil
}

// touchedScript drives twin box meshes through one script: one refines
// by the touched set, the other by the slab-scanning oracle. After every
// step the two must agree slab for slab, mark for mark, and in every
// statistic. It returns how many refinements after a coarsening needed a
// second subdividing round (a child on an already-bisected edge).
func touchedScript(t *testing.T, script []byte) (carried int) {
	t.Helper()
	if len(script) < 2 {
		return 0
	}
	dims := int(script[0])
	nx, ny, nz := 1+dims%4, 1+dims/4%4, 1+dims/16%4
	size := geom.Vec3{X: float64(nx), Y: float64(ny), Z: float64(nz)}
	walk, slab := meshgen.Box(nx, ny, nz, size), meshgen.Box(nx, ny, nz, size)
	aw, as := New(walk), New(slab)
	for step, b := range script[1:min(len(script), 9)] {
		// Bits 0-1 pick the operation, the rest where the sphere sits.
		centre := geom.Vec3{X: size.X * float64(b>>2&7) / 7, Y: size.Y * float64(b>>5&1), Z: size.Z * float64(b>>6&3) / 3}
		region := geom.Sphere{Center: centre, Radius: 0.8}
		var got, want CoarsenStats
		switch b & 3 {
		case 0:
			aw.MarkRegion(region, MarkRefine)
			as.MarkRegion(region, MarkRefine)
			got.Rerefine, _ = refineChecked(t, aw)
			want.Rerefine = as.refineSlab()
		case 1:
			aw.MarkRandom(0.1, MarkRefine, int64(b))
			as.MarkRandom(0.1, MarkRefine, int64(b))
			got.Rerefine, _ = refineChecked(t, aw)
			want.Rerefine = as.refineSlab()
		case 2:
			aw.MarkRegion(region, MarkCoarsen)
			as.MarkRegion(region, MarkCoarsen)
			got = aw.removeMarked()
			var rounds int
			got.Rerefine, rounds = refineChecked(t, aw)
			if rounds > 1 {
				carried++
			}
			want = as.removeMarked()
			want.Rerefine = as.refineSlab()
		case 3:
			aw.Compact()
			as.Compact()
		}
		if got != want {
			t.Fatalf("step %d (op %d): touched-set stats %+v, slab scan %+v", step, b&3, got, want)
		}
		if err := sameSlabs(walk, slab); err != nil {
			t.Fatalf("step %d (op %d): %v", step, b&3, err)
		}
		if !slices.Equal(aw.MarksSnapshot(), as.MarksSnapshot()) {
			t.Fatalf("step %d (op %d): marks differ", step, b&3)
		}
		if err := walk.Check(); err != nil {
			t.Fatalf("step %d (op %d): %v", step, b&3, err)
		}
		if len(walk.Elems) > 20000 {
			break
		}
	}
	return carried
}

// carrySeed is a script whose coarsening leaves a reinstated parent on an
// edge split twice, so the re-refinement subdivides in a second round.
var carrySeed = []byte{0xea, 0x0d, 0xac, 0x62} // random refine, region refine, coarsen

// FuzzRefineTouched holds the touched-set refinement to the slab-scanning
// oracle over scripts of region and random refinements, region
// coarsenings and compactions.
func FuzzRefineTouched(f *testing.F) {
	f.Add(carrySeed)
	f.Add([]byte{0x05, 0x00, 0x01, 0x02, 0x03, 0x00})
	f.Add([]byte{0x15, 0x21, 0x45, 0x86, 0x03, 0x61})
	f.Add([]byte{0x11, 0x09, 0x0d, 0x0a, 0x01, 0x0e, 0x03})
	f.Fuzz(func(t *testing.T, script []byte) { touchedScript(t, script) })
}

// TestRefineTouchedCarry pins what the carry list is for: the fuzz seed
// above needs a second subdividing round after a coarsening, and the
// touched set still matches the slab scan through it.
func TestRefineTouchedCarry(t *testing.T) {
	if n := touchedScript(t, carrySeed); n == 0 {
		t.Fatal("no re-refinement took a second round: the seed no longer exercises the carry list")
	}
}

// BenchmarkRefineLocal times one refinement pass of a fixed ≈200-edge
// sphere on two box meshes 8× apart in elements. The marked set is the
// same size on both, so the pass's cost should follow it rather than the
// mesh. Cloning, the adaptor's construction and the slab headroom the pass
// would otherwise regrow into (a copy of every slab) are outside the timer.
func BenchmarkRefineLocal(b *testing.B) {
	for _, n := range []int{12, 24} {
		base := meshgen.Box(n, n, n, geom.Vec3{X: 1, Y: 1, Z: 1})
		// Off the lattice, so the sphere's shell holds few ties.
		c := geom.Vec3{X: 0.513, Y: 0.507, Z: 0.503}
		region := SphereForFraction(base, c, 200/float64(base.NumActiveEdges()))
		var sphere []mesh.EdgeID
		for e := range base.Edges {
			if region.Contains(base.EdgeMid(mesh.EdgeID(e))) {
				sphere = append(sphere, mesh.EdgeID(e))
			}
		}
		b.Run(fmt.Sprintf("elems=%d", base.NumActiveElems()), func(b *testing.B) {
			var st RefineStats
			for range b.N {
				b.StopTimer()
				m := base.Clone()
				m.Reserve(4096, 16384, 16384, 4096)
				a := New(m)
				b.StartTimer()
				for _, e := range sphere {
					a.SetMark(e, MarkRefine)
				}
				st = a.Refine()
			}
			b.ReportMetric(float64(len(sphere)), "marked-edges")
			b.ReportMetric(float64(st.TotalSubdivided()), "subdivided-elems")
		})
	}
}
