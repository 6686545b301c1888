// Package solver provides the edge-based proxy flow solver that drives the
// adaption loop. The paper's framework needs three things from its flow
// solver: vertex-stored solution variables updated by edge loops, a
// per-edge error indicator to target adaption, and a per-iteration
// per-element cost (Titer) for the gain/cost model. This proxy — explicit
// pseudo-Laplacian smoothing with optional source forcing — supplies all
// three with the same data-access pattern as the unstructured Euler
// solvers the paper couples to (edge loops over vertex data).
package solver

import (
	"math"

	"plum/internal/adapt"
	"plum/internal/geom"
	"plum/internal/mesh"
)

// Solver holds a vertex-stored scalar solution on a mesh.
type Solver struct {
	M *mesh.Mesh
	// U is the solution value at each vertex (indexed by VertID).
	U []float64
	// Relax is the explicit smoothing factor in (0, 1].
	Relax float64
}

// New initializes the solution from the given field.
func New(m *mesh.Mesh, field func(geom.Vec3) float64) *Solver {
	s := &Solver{M: m, U: make([]float64, len(m.Verts)), Relax: 0.5}
	for i := range m.Verts {
		if !m.Verts[i].Dead {
			s.U[i] = field(m.Verts[i].Pos)
		}
	}
	return s
}

// Iterate performs n explicit edge-based smoothing sweeps: every active
// edge exchanges flux proportional to the solution difference of its
// endpoints, and each vertex relaxes toward its edge-neighbour average.
func (s *Solver) Iterate(n int) {
	m := s.M
	flux := make([]float64, len(m.Verts))
	deg := make([]float64, len(m.Verts))
	for it := 0; it < n; it++ {
		for i := range flux {
			flux[i] = 0
			deg[i] = 0
		}
		for ei := range m.Edges {
			ed := &m.Edges[ei]
			if ed.Dead || ed.Bisected() || ed.NumElems() == 0 {
				continue
			}
			a, b := ed.V[0], ed.V[1]
			d := s.U[b] - s.U[a]
			flux[a] += d
			flux[b] -= d
			deg[a]++
			deg[b]++
		}
		for i := range s.U {
			if deg[i] > 0 {
				s.U[i] += s.Relax * flux[i] / deg[i]
			}
		}
	}
}

// EdgeError returns the per-edge error indicator |U(b) − U(a)| scaled by
// edge length — large where the solution varies rapidly, which is where
// the paper targets refinement. Indexed by EdgeID; inactive edges get 0.
func (s *Solver) EdgeError() []float64 {
	m := s.M
	errv := make([]float64, len(m.Edges))
	for ei := range m.Edges {
		ed := &m.Edges[ei]
		if ed.Dead || ed.Bisected() || ed.NumElems() == 0 {
			continue
		}
		errv[ei] = math.Abs(s.U[ed.V[1]]-s.U[ed.V[0]]) * m.EdgeLength(mesh.EdgeID(ei))
	}
	return errv
}

// SyncAfterAdaption brings the solution up to date with the mesh's log and
// clears it: the field first follows its vertices through a pending
// compaction renumbering, then extends over the vertices created since the
// last sync (linear interpolation along bisected edges, as the paper does).
func (s *Solver) SyncAfterAdaption() {
	if rn := s.M.Renumbering; len(rn) != 0 {
		// In place: survivors keep their order, so no value moves up.
		n := 0
		for old, nv := range rn[:min(len(rn), len(s.U))] {
			if nv != mesh.InvalidVert {
				s.U[nv] = s.U[old]
				n++
			}
		}
		s.U = s.U[:n]
	}
	s.U = adapt.InterpolateBisections(s.M, s.U)
	s.M.ResetLog()
}

// GaussianPulse returns a field with a sharp spherical feature at c — the
// stand-in for a shock/vortex core that drives Local_1-style adaption.
func GaussianPulse(c geom.Vec3, width float64) func(geom.Vec3) float64 {
	return func(p geom.Vec3) float64 {
		d := p.Sub(c).Norm2()
		return math.Exp(-d / (2 * width * width))
	}
}

// PlanarShock returns a field with a steep tanh front at plane x = x0
// moving with the returned closure's x0 — the stand-in for the travelling
// shocks of unsteady computations (Local_2-style adaption).
func PlanarShock(x0, thickness float64) func(geom.Vec3) float64 {
	return func(p geom.Vec3) float64 {
		return math.Tanh((p.X - x0) / thickness)
	}
}
