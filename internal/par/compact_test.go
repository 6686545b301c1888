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
// left out. Two meshes with equal canonical forms are the same mesh, the
// same refinement history and the same list orders, under that map.
type canonMesh struct {
	Verts []mesh.Vertex
	Edges []mesh.Edge
	Elems []mesh.Element
	Faces []mesh.BoundaryFace
	Log   []mesh.Bisection
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

func ref[ID ~int32](x ID, r []ID) ID {
	if x < 0 {
		return x
	}
	return r[x]
}

func canon(m *mesh.Mesh) canonMesh {
	rv := ranks[mesh.VertID](len(m.Verts), func(i int) bool { return m.Verts[i].Dead })
	re := ranks[mesh.EdgeID](len(m.Edges), func(i int) bool { return m.Edges[i].Dead })
	rt := ranks[mesh.ElemID](len(m.Elems), func(i int) bool { return m.Elems[i].Dead })
	rf := ranks[mesh.FaceID](len(m.Faces), func(i int) bool { return m.Faces[i].Dead })
	var c canonMesh
	for i, v := range m.Verts {
		if rv[i] >= 0 {
			v.Edges = through(v.Edges, re)
			c.Verts = append(c.Verts, v)
		}
	}
	for i, e := range m.Edges {
		if re[i] < 0 {
			continue
		}
		e.V = [2]mesh.VertID{rv[e.V[0]], rv[e.V[1]]}
		e.Elems = through(e.Elems, rt)
		e.Parent = ref(e.Parent, re)
		e.Child = [2]mesh.EdgeID{ref(e.Child[0], re), ref(e.Child[1], re)}
		e.Mid = ref(e.Mid, rv)
		c.Edges = append(c.Edges, e)
	}
	for i, t := range m.Elems {
		if rt[i] < 0 {
			continue
		}
		for j := range t.V {
			t.V[j] = rv[t.V[j]]
		}
		for j := range t.E {
			t.E[j] = re[t.E[j]]
		}
		t.Parent, t.Root = ref(t.Parent, rt), rt[t.Root]
		t.Children = through(t.Children, rt)
		c.Elems = append(c.Elems, t)
	}
	for i, f := range m.Faces {
		if rf[i] < 0 {
			continue
		}
		for j := range f.V {
			f.V[j], f.E[j] = rv[f.V[j]], re[f.E[j]]
		}
		f.Parent = ref(f.Parent, rf)
		f.Children = through(f.Children, rf)
		c.Faces = append(c.Faces, f)
	}
	// The log of a mesh that never compacts keeps the bisections coarsening
	// has undone since; Compact drops them.
	for _, b := range m.Bisections {
		if re[b.Edge] >= 0 && rv[b.Mid] >= 0 {
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
	for i := range m.Verts {
		if m.Verts[i].Dead {
			return fmt.Errorf("vertex slot %d of %d is dead", i, len(m.Verts))
		}
	}
	for i := range m.Edges {
		if m.Edges[i].Dead {
			return fmt.Errorf("edge slot %d of %d is dead", i, len(m.Edges))
		}
	}
	for i := range m.Faces {
		if m.Faces[i].Dead {
			return fmt.Errorf("face slot %d of %d is dead", i, len(m.Faces))
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
func sweepDist(nx, workers int) (*Dist, *adapt.Adaptor) {
	m := sweepBox(nx)
	d := NewDist(m, 4, partition.Partition(dual.Build(m), 4, partition.MethodInertial))
	d.Workers = workers
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
	d, a := sweepDist(12, 0)
	plainM := sweepBox(12)
	plain := adapt.New(plainM)
	mdl := machine.SP2()
	removed := 0
	for c := 0; c < cycles; c++ {
		markWake(a, c, cycles)
		markWake(plain, c, cycles)
		cst, _ := d.ParallelCoarsen(a, mdl)
		want := plain.Coarsen()
		// The distributed pass reaches the marking fixpoint in its own
		// engine, so the kernel's visit count is not comparable.
		cst.Rerefine.Propagations, want.Rerefine.Propagations = 0, 0
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
		rst.Propagations, rwant.Propagations = 0, 0
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
	d, a := sweepDist(8, 0)
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
	d, a := sweepDist(16, 0)
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

// TestCompactWorkerParity runs the compacting sweep at two worker counts:
// owners, timings (but the critical-path op shares) and the mesh slabs
// themselves must be equal. Not skipped under -short: the race jobs run it
// at GOMAXPROCS 1 and 4.
func TestCompactWorkerParity(t *testing.T) {
	const cycles = 4
	type pass struct {
		Coarsen, Refine AdaptTimings
	}
	run := func(workers int) (*Dist, []pass) {
		d, a := sweepDist(32, workers)
		var out []pass
		for c := 0; c < cycles; c++ {
			var p pass
			markWake(a, c, cycles)
			_, p.Coarsen = d.ParallelCoarsen(a, machine.SP2())
			markFront(a, c, cycles)
			_, p.Refine = d.ParallelRefine(a, machine.SP2())
			p.Coarsen, p.Refine = normCrit(p.Coarsen), normCrit(p.Refine)
			out = append(out, p)
		}
		return d, out
	}
	d1, tm1 := run(1)
	d3, tm3 := run(3)
	if len(d1.M.Elems) <= SerialCutoff {
		t.Fatalf("%d element slots: the chunked scans never ran", len(d1.M.Elems))
	}
	if !reflect.DeepEqual(tm1, tm3) {
		t.Errorf("timings differ:\nworkers 1 %+v\nworkers 3 %+v", tm1, tm3)
	}
	if !reflect.DeepEqual(d1.Owners(), d3.Owners()) {
		t.Error("owners differ")
	}
	m1, m3 := d1.M, d3.M
	if !reflect.DeepEqual(m1.Verts, m3.Verts) || !reflect.DeepEqual(m1.Edges, m3.Edges) ||
		!reflect.DeepEqual(m1.Elems, m3.Elems) || !reflect.DeepEqual(m1.Faces, m3.Faces) {
		t.Error("mesh slabs differ")
	}
}

// FuzzCompact drives twin meshes through one script of refinements,
// coarsenings and solver syncs; one twin also compacts where the script
// says so. Both must stay valid, the compacting twin must be the other
// relabelled, and a field synced on both must agree vertex for vertex.
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
			}
			if err := relabelled(tw[0].m, tw[1].m); err != nil {
				t.Fatalf("step %d: %v", step, err)
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
			for v := range w.m.Verts {
				if !w.m.Verts[v].Dead {
					u[i] = append(u[i], w.s.U[v])
				}
			}
		}
		if !reflect.DeepEqual(u[0], u[1]) {
			t.Fatalf("fields differ over the live vertices:\ncompacting %v\nplain      %v", u[0], u[1])
		}
	})
}
