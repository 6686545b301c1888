package par

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/meshgen"
	"plum/internal/partition"
	"plum/internal/solver"
)

// canonMesh is a mesh with every id replaced by its rank among the live
// ids of its kind — the one monotone relabelling there is — and the dead
// left out. Lists are read through the accessors and sibling groups
// spelled out, so the layout Compact re-carves (list offsets and capacity
// classes) does not count. Two meshes with equal canonical forms are the
// same mesh, the same refinement history and the same list orders, under
// that map.
type canonMesh struct {
	Verts []canonVert
	Edges []canonEdge
	Elems []canonElem
	Faces []canonFace
	Log   []mesh.Bisection
}

type canonVert struct {
	Pos   geom.Vec3
	Edges []mesh.EdgeID
}

type canonEdge struct {
	V      [2]mesh.VertID
	Parent mesh.EdgeID
	Child  [2]mesh.EdgeID
	Mid    mesh.VertID
	Elems  []mesh.ElemID
}

type canonElem struct {
	V            [4]mesh.VertID
	E            [6]mesh.EdgeID
	Parent, Root mesh.ElemID
	Level        uint8
	Children     []mesh.ElemID
}

type canonFace struct {
	V        [3]mesh.VertID
	E        [3]mesh.EdgeID
	Patch    int32
	Parent   mesh.FaceID
	Children []mesh.FaceID
}

// ranks maps each id of a slab to its rank among the live ones, -1 for
// the dead.
func ranks[ID ~int32](n int, dead func(i int) bool) []ID {
	r := make([]ID, n)
	k := ID(0)
	for i := range r {
		r[i] = -1
		if !dead(i) {
			r[i] = k
			k++
		}
	}
	return r
}

// through renumbers the list l, nil when it is empty (a cleared list and
// one never carved are the same list).
func through[ID ~int32](l []ID, r []ID) []ID {
	var out []ID
	for _, x := range l {
		out = append(out, r[x])
	}
	return out
}

// span renumbers the sibling group [first, first+n), nil when it is empty.
func span[ID ~int32](first ID, n int, r []ID) []ID {
	var out []ID
	for c := first; c < first+ID(n); c++ {
		out = append(out, r[c])
	}
	return out
}

func ref[ID ~int32](x ID, r []ID) ID {
	if x < 0 {
		return x
	}
	return r[x]
}

func canon(m *mesh.Mesh) canonMesh {
	rv := ranks[mesh.VertID](m.VertSlots(), func(i int) bool { return m.Vert(mesh.VertID(i)).Dead })
	re := ranks[mesh.EdgeID](m.EdgeSlots(), func(i int) bool { return m.Edge(mesh.EdgeID(i)).Dead })
	rt := ranks[mesh.ElemID](len(m.Elems), func(i int) bool { return m.Elems[i].Dead })
	rf := ranks[mesh.FaceID](m.FaceSlots(), func(i int) bool { return m.Face(mesh.FaceID(i)).Dead })
	var c canonMesh
	for i := range mesh.VertID(m.VertSlots()) {
		if rv[i] >= 0 {
			c.Verts = append(c.Verts, canonVert{m.Vert(i).Pos, through(m.VertEdges(i), re)})
		}
	}
	for i := range mesh.EdgeID(m.EdgeSlots()) {
		if re[i] < 0 {
			continue
		}
		e := m.Edge(i)
		c.Edges = append(c.Edges, canonEdge{
			V:      [2]mesh.VertID{rv[e.V[0]], rv[e.V[1]]},
			Parent: ref(e.Parent, re),
			Child:  [2]mesh.EdgeID{ref(e.Child[0], re), ref(e.Child[1], re)},
			Mid:    ref(e.Mid, rv),
			Elems:  through(m.EdgeElems(mesh.EdgeID(i)), rt),
		})
	}
	for i := range m.Elems {
		if rt[i] < 0 {
			continue
		}
		t := &m.Elems[i]
		first, n := t.Children()
		ct := canonElem{Parent: ref(t.Parent, rt), Root: rt[t.Root], Level: t.Level, Children: span(first, n, rt)}
		tt := m.Tet(mesh.ElemID(i))
		for j, v := range tt.V {
			ct.V[j] = rv[v]
		}
		for j, e := range tt.E {
			ct.E[j] = re[e]
		}
		c.Elems = append(c.Elems, ct)
	}
	for i := range mesh.FaceID(m.FaceSlots()) {
		if rf[i] < 0 {
			continue
		}
		f := m.Face(i)
		first, n := f.Children()
		cf := canonFace{Patch: f.Patch, Parent: ref(f.Parent, rf), Children: span(first, n, rf)}
		for j := range f.V {
			cf.V[j], cf.E[j] = rv[f.V[j]], re[f.E[j]]
		}
		c.Faces = append(c.Faces, cf)
	}
	// The log of a mesh that never compacts keeps the bisections coarsening
	// has undone since; Compact drops them.
	for i := range m.NumBisections() {
		if b := m.Bisection(i); re[b.Edge] >= 0 && rv[b.Mid] >= 0 {
			c.Log = append(c.Log, mesh.Bisection{Edge: re[b.Edge], A: rv[b.A], B: rv[b.B], Mid: rv[b.Mid]})
		}
	}
	return c
}

// relabelled reports how compacted differs from the mesh plain it should
// be a monotone relabelling of, or nil.
func relabelled(compacted, plain *mesh.Mesh) error {
	a, b := canon(compacted), canon(plain)
	for _, s := range []struct {
		what string
		a, b reflect.Value
	}{
		{"vertex", reflect.ValueOf(a.Verts), reflect.ValueOf(b.Verts)},
		{"edge", reflect.ValueOf(a.Edges), reflect.ValueOf(b.Edges)},
		{"element", reflect.ValueOf(a.Elems), reflect.ValueOf(b.Elems)},
		{"face", reflect.ValueOf(a.Faces), reflect.ValueOf(b.Faces)},
		{"log entry", reflect.ValueOf(a.Log), reflect.ValueOf(b.Log)},
	} {
		if s.a.Len() != s.b.Len() {
			return fmt.Errorf("%d live %ss, want %d", s.a.Len(), s.what, s.b.Len())
		}
		for i := 0; i < s.a.Len(); i++ {
			if x, y := s.a.Index(i).Interface(), s.b.Index(i).Interface(); !reflect.DeepEqual(x, y) {
				return fmt.Errorf("live %s %d: %+v, want %+v", s.what, i, x, y)
			}
		}
	}
	return nil
}

// slotsFollowLive reports the first slab of m that holds a dead object.
func slotsFollowLive(m *mesh.Mesh) error {
	for i := range mesh.VertID(m.VertSlots()) {
		if m.Vert(i).Dead {
			return fmt.Errorf("vertex slot %d of %d is dead", i, m.VertSlots())
		}
	}
	for i := range mesh.EdgeID(m.EdgeSlots()) {
		if m.Edge(i).Dead {
			return fmt.Errorf("edge slot %d of %d is dead", i, m.EdgeSlots())
		}
	}
	for i := range mesh.FaceID(m.FaceSlots()) {
		if m.Face(i).Dead {
			return fmt.Errorf("face slot %d of %d is dead", i, m.FaceSlots())
		}
	}
	if n := m.NumElemsTotal(); n != len(m.Elems) {
		return fmt.Errorf("%d element slots for %d live", len(m.Elems), n)
	}
	return nil
}

// wake is the box behind a front at x moving in +x.
func wake(x float64) geom.AABB { return geom.AABB{Max: geom.Vec3{X: x - 0.5, Y: 1, Z: 1}} }

// sweepBox is the toy of the sweep-coarsen workload: a 4 x 1 x 1 box a
// refined sphere crosses in `cycles` steps, the wake behind it coarsened.
func sweepBox(nx int) *mesh.Mesh { return meshgen.Box(nx, nx/4, nx/4, geom.Vec3{X: 4, Y: 1, Z: 1}) }

func sweepFront(c, cycles int) geom.Vec3 {
	return geom.Vec3{X: 0.4 + 3.2*float64(c)/float64(cycles), Y: 0.5, Z: 0.5}
}

func markWake(a *adapt.Adaptor, c, cycles int) {
	a.MarkRegion(wake(sweepFront(c, cycles).X), adapt.MarkCoarsen)
}

func markFront(a *adapt.Adaptor, c, cycles int) {
	a.MarkRegion(geom.Sphere{Center: sweepFront(c, cycles), Radius: 0.4}, adapt.MarkRefine)
}

// sweepDist distributes a sweep box over four ranks.
func sweepDist(nx int) (*Dist, *adapt.Adaptor) {
	m := sweepBox(nx)
	d := NewDist(m, 4, partition.Partition(dual.Build(m), 4, partition.MethodHilbertSFC))
	return d, adapt.New(m)
}

// TestCompactIsRelabelling runs the sweep twice: through ParallelCoarsen
// and ParallelRefine, which compact every pass, and through the serial
// kernel, which never does. The compacting run must be the other under
// one monotone map of ids — same statistics, same objects at the same
// positions in the same creation order, same history, same lists — which
// also makes leaf counts per root (so the rank loads), element centroids
// and boundary faces the same.
func TestCompactIsRelabelling(t *testing.T) {
	const cycles = 7
	d, a := sweepDist(12)
	plainM := sweepBox(12)
	plain := adapt.New(plainM)
	mdl := machine.SP2()
	removed := 0
	for c := 0; c < cycles; c++ {
		markWake(a, c, cycles)
		markWake(plain, c, cycles)
		cst, _ := d.ParallelCoarsen(a, mdl)
		want := plain.Coarsen()
		if cst != want {
			t.Fatalf("cycle %d: coarsen stats %+v, serial kernel %+v", c, cst, want)
		}
		removed += cst.ElemsRemoved
		if err := slotsFollowLive(d.M); err != nil {
			t.Fatalf("cycle %d after coarsening: %v", c, err)
		}
		if err := relabelled(d.M, plainM); err != nil {
			t.Fatalf("cycle %d after coarsening: %v", c, err)
		}

		markFront(a, c, cycles)
		markFront(plain, c, cycles)
		rst, _ := d.ParallelRefine(a, mdl)
		rwant := plain.Refine()
		if rst != rwant {
			t.Fatalf("cycle %d: refine stats %+v, serial kernel %+v", c, rst, rwant)
		}
		for _, m := range []*mesh.Mesh{d.M, plainM} {
			if err := m.Check(); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
		if err := relabelled(d.M, plainM); err != nil {
			t.Fatalf("cycle %d after refinement: %v", c, err)
		}
	}
	if removed == 0 || len(plainM.Elems) < 2*len(d.M.Elems) {
		t.Fatalf("the sweep removed %d elements and left %d slots against %d: nothing to compact",
			removed, len(plainM.Elems), len(d.M.Elems))
	}
}

// TestSlotsFollowLive pins the point of the compaction: after every
// distributed coarsening pass no slab holds a dead object.
func TestSlotsFollowLive(t *testing.T) {
	const cycles = 4
	d, a := sweepDist(8)
	for c := 0; c < cycles; c++ {
		markWake(a, c, cycles)
		d.ParallelCoarsen(a, machine.SP2())
		if err := slotsFollowLive(d.M); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		markFront(a, c, cycles)
		d.ParallelRefine(a, machine.SP2())
	}
}

// TestHeapPlateaus runs the sweep in its steady state, a solver field
// along: once the front is clear of the inflow end the live heap stays
// where it is instead of growing by a wake's worth of dead slots a cycle.
func TestHeapPlateaus(t *testing.T) {
	const cycles = 9
	d, a := sweepDist(16)
	s := solver.New(d.M, solver.PlanarShock(0, 0.2))
	var heap [cycles]uint64
	for c := 0; c < cycles; c++ {
		markWake(a, c, cycles)
		d.ParallelCoarsen(a, machine.SP2())
		s.SyncAfterAdaption()
		markFront(a, c, cycles)
		d.ParallelRefine(a, machine.SP2())
		s.SyncAfterAdaption()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap[c] = ms.HeapAlloc
	}
	for c := 5; c < cycles; c++ {
		if lo, hi := 0.85*float64(heap[4]), 1.15*float64(heap[4]); float64(heap[c]) < lo || float64(heap[c]) > hi {
			t.Errorf("live heap after cycle %d is %d B, cycle 4 left %d B: %v", c, heap[c], heap[4], heap)
		}
	}
}

// FuzzCompact drives twin meshes through one script of refinements,
// coarsenings and solver syncs; one twin also compacts where the script
// says so. Both must stay valid (Check holds the roots to the prefix
// [0, NumRoots)) and keep every initial element as a root, the compacting
// twin must be the other relabelled, a clone of it taken after every step
// must equal it list for list, and a field synced on both must agree
// vertex for vertex.
func FuzzCompact(f *testing.F) {
	f.Add([]byte{0x21, 0x05, 0x93, 0x0a, 0x47}) // refine, coarsen, compact, sync late
	f.Add([]byte{0x00, 0x04, 0x09, 0x0a})       // refine, coarsen the same region, compact, then the first sync
	f.Add([]byte{0xff, 0x0c, 0x11, 0x02, 0x15, 0x0e})
	f.Add([]byte{0x5a, 0x01, 0x02, 0x06, 0x02})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		dims := int(script[0])
		nx, ny, nz := 1+dims%5, 1+dims/5%5, 1+dims/25%5
		size := geom.Vec3{X: float64(nx), Y: float64(ny), Z: float64(nz)}
		type twin struct {
			m *mesh.Mesh
			a *adapt.Adaptor
			s *solver.Solver
		}
		var tw [2]twin
		for i := range tw {
			m := meshgen.Box(nx, ny, nz, size)
			tw[i] = twin{m, adapt.New(m), solver.New(m, solver.PlanarShock(0.5, 0.3))}
		}
		for step, b := range script[1:min(len(script), 6)] {
			// Bits 0-1 pick the operation, bit 2 a sync after it, the rest
			// where the marked sphere sits.
			centre := geom.Vec3{X: size.X * float64(b>>3&3) / 3, Y: size.Y * float64(b>>5&1), Z: size.Z * float64(b>>6&1)}
			region := geom.Sphere{Center: centre, Radius: 0.8}
			for i, w := range tw {
				switch b & 3 {
				case 0:
					w.a.MarkRegion(region, adapt.MarkRefine)
					w.a.Refine()
				case 1:
					w.a.MarkRegion(region, adapt.MarkCoarsen)
					w.a.Coarsen()
				case 2:
					if i == 0 {
						w.a.Compact()
					}
				case 3:
					w.a.MarkRandom(0.1, adapt.MarkRefine, int64(b))
					w.a.Refine()
				}
				if b&4 != 0 {
					w.s.SyncAfterAdaption()
				}
				if err := w.m.Check(); err != nil {
					t.Fatalf("step %d twin %d: %v", step, i, err)
				}
				if got := w.m.NumRoots(); got != 6*nx*ny*nz {
					t.Fatalf("step %d twin %d: %d roots, want the %d initial elements", step, i, got, 6*nx*ny*nz)
				}
			}
			if err := relabelled(tw[0].m, tw[1].m); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := relabelled(tw[0].m.Clone(), tw[0].m); err != nil {
				t.Fatalf("step %d: clone: %v", step, err)
			}
			if len(tw[0].m.Elems) > 20000 {
				break
			}
		}
		for _, w := range tw {
			w.s.SyncAfterAdaption()
		}
		var u [2][]float64
		for i, w := range tw {
			for v := range mesh.VertID(w.m.VertSlots()) {
				if !w.m.Vert(v).Dead {
					u[i] = append(u[i], w.s.U[v])
				}
			}
		}
		if !reflect.DeepEqual(u[0], u[1]) {
			t.Fatalf("fields differ over the live vertices:\ncompacting %v\nplain      %v", u[0], u[1])
		}
	})
}
