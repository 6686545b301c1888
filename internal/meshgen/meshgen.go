// Package meshgen builds synthetic tetrahedral meshes used in place of the
// paper's proprietary UH-1H helicopter-rotor grid (60,968 elements, 78,343
// edges). The generators produce conforming tetrahedralizations with the
// same scale, adjacency structure, and boundary topology, which is all the
// adaption and load-balancing experiments depend on.
package meshgen

import (
	"math"

	"plum/internal/geom"
	"plum/internal/mesh"
)

// kuhnPerms lists the 6 axis orders of the Kuhn (path) subdivision of a
// cube into tetrahedra. Each tetrahedron walks from corner (0,0,0) to
// corner (1,1,1) adding one unit step per axis in the given order; the
// resulting tetrahedralization is conforming across neighbouring cubes.
var kuhnPerms = [6][3]int{
	{0, 1, 2}, {0, 2, 1},
	{1, 0, 2}, {1, 2, 0},
	{2, 0, 1}, {2, 1, 0},
}

// Box builds a conforming tetrahedral mesh of an nx×ny×nz grid of cubes
// (6 tetrahedra per cube, Kuhn subdivision) spanning [0,size.X]×[0,size.Y]
// ×[0,size.Z], with boundary faces on all six sides (patches 0..5 for
// -x,+x,-y,+y,-z,+z). The mesh has 6·nx·ny·nz elements.
func Box(nx, ny, nz int, size geom.Vec3) *mesh.Mesh {
	return boxMapped(nx, ny, nz, func(p geom.Vec3) geom.Vec3 {
		return geom.Vec3{X: p.X * size.X, Y: p.Y * size.Y, Z: p.Z * size.Z}
	})
}

// boxMapped builds the Kuhn box mesh on the unit cube and maps every
// vertex through warp. warp must be injective and orientation-safe
// (element orientation is normalized on insertion).
func boxMapped(nx, ny, nz int, warp func(geom.Vec3) geom.Vec3) *mesh.Mesh {
	nvx, nvy, nvz := nx+1, ny+1, nz+1
	nTet := 6 * nx * ny * nz
	m := mesh.New(nTet)

	vid := func(i, j, k int) mesh.VertID {
		return mesh.VertID((i*nvy+j)*nvz + k)
	}
	for i := 0; i < nvx; i++ {
		for j := 0; j < nvy; j++ {
			for k := 0; k < nvz; k++ {
				p := geom.Vec3{
					X: float64(i) / float64(nx),
					Y: float64(j) / float64(ny),
					Z: float64(k) / float64(nz),
				}
				m.AddVertex(warp(p))
			}
		}
	}

	// Every Kuhn edge joins a vertex v to its neighbour at a lattice offset
	// d in {0,1}³ \ {0} (bits 4, 2, 1 for x, y, z), so the grid knows its
	// edges: lattice[7v+d-1] is that edge, or FreshEdge until an element
	// creates it. The elements get them without a search, in the order
	// AddElement would have found and created them.
	lattice := make([]mesh.EdgeID, 7*nvx*nvy*nvz)
	for i := range lattice {
		lattice[i] = mesh.FreshEdge
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				corner := [3]int{i, j, k}
				for _, perm := range kuhnPerms {
					var vs [4]mesh.VertID
					var off [4]int // each path vertex's offset from the corner
					cur := corner
					vs[0] = vid(cur[0], cur[1], cur[2])
					for s, axis := range perm {
						cur[axis]++
						vs[s+1] = vid(cur[0], cur[1], cur[2])
						off[s+1] = off[s] | 4>>axis
					}
					var e [6]mesh.EdgeID
					var at [6]int
					for le, lv := range mesh.ElemEdgeVerts {
						at[le] = 7*int(vs[lv[0]]) + off[lv[1]] - off[lv[0]] - 1
						e[le] = lattice[at[le]]
					}
					m.AddElementEdges(vs, &e, mesh.InvalidElem, mesh.InvalidElem, 0)
					for le, x := range at {
						lattice[x] = e[le]
					}
				}
			}
		}
	}

	// Boundary faces. On every exterior cube face the Kuhn subdivision
	// splits the quad along the diagonal from the (u=0,v=0) corner to the
	// (u=1,v=1) corner, giving triangles (c00,c10,c11) and (c00,c01,c11).
	addQuad := func(c00, c10, c01, c11 mesh.VertID, patch int32) {
		m.AddBoundaryFace(c00, c10, c11, patch)
		m.AddBoundaryFace(c00, c01, c11, patch)
	}
	for j := 0; j < ny; j++ {
		for k := 0; k < nz; k++ {
			addQuad(vid(0, j, k), vid(0, j+1, k), vid(0, j, k+1), vid(0, j+1, k+1), 0)
			addQuad(vid(nx, j, k), vid(nx, j+1, k), vid(nx, j, k+1), vid(nx, j+1, k+1), 1)
		}
	}
	for i := 0; i < nx; i++ {
		for k := 0; k < nz; k++ {
			addQuad(vid(i, 0, k), vid(i+1, 0, k), vid(i, 0, k+1), vid(i+1, 0, k+1), 2)
			addQuad(vid(i, ny, k), vid(i+1, ny, k), vid(i, ny, k+1), vid(i+1, ny, k+1), 3)
		}
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			addQuad(vid(i, j, 0), vid(i+1, j, 0), vid(i, j+1, 0), vid(i+1, j+1, 0), 4)
			addQuad(vid(i, j, nz), vid(i+1, j, nz), vid(i, j+1, nz), vid(i+1, j+1, nz), 5)
		}
	}
	return m
}

// UnitCube returns the 6-tetrahedron Kuhn mesh of the unit cube; handy for
// small deterministic tests.
func UnitCube() *mesh.Mesh {
	return Box(1, 1, 1, geom.Vec3{X: 1, Y: 1, Z: 1})
}

// RotorParams configures the RotorDisk generator.
type RotorParams struct {
	// Grid resolution; elements = 6·NR·NTheta·NZ.
	NR, NTheta, NZ int
	// Inner and outer radius of the rotor-disk annulus.
	R0, R1 float64
	// Angular sweep in radians (2π·fraction for a blade sector).
	Sweep float64
	// Height of the disk.
	Height float64
}

// DefaultRotor returns parameters sized to match the paper's initial mesh
// (60,968 tetrahedra, 78,343 edges): a 21×22×22 grid gives 60,984 elements
// and 75,437 edges — within 0.03% and 3.7% of the paper's counts.
func DefaultRotor() RotorParams {
	return RotorParams{
		NR: 21, NTheta: 22, NZ: 22,
		R0: 0.4, R1: 2.4,
		Sweep:  1.25 * math.Pi,
		Height: 1.2,
	}
}

// RotorDisk builds a rotor-disk-like annular sector mesh: the structured
// box grid is warped into cylindrical coordinates (radius, azimuth,
// height). It stands in for the UH-1H rotor acoustics mesh of Strawn,
// Biswas & Garceau used by the paper.
func RotorDisk(p RotorParams) *mesh.Mesh {
	return boxMapped(p.NR, p.NTheta, p.NZ, func(q geom.Vec3) geom.Vec3 {
		r := p.R0 + q.X*(p.R1-p.R0)
		th := q.Y * p.Sweep
		return geom.Vec3{
			X: r * math.Cos(th),
			Y: r * math.Sin(th),
			Z: (q.Z - 0.5) * p.Height,
		}
	})
}

// PaperMesh returns the standard initial mesh used by the experiment
// harness: the rotor-disk mesh at the paper's scale.
func PaperMesh() *mesh.Mesh { return RotorDisk(DefaultRotor()) }

// SmallBox returns a 4×4×4 box mesh (384 elements), a convenient
// mid-sized fixture for unit tests.
func SmallBox() *mesh.Mesh { return Box(4, 4, 4, geom.Vec3{X: 1, Y: 1, Z: 1}) }
