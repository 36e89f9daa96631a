// Package shellgeom defines the angular bucket layout of the paper's
// Section 6 spherical shells: the partition of directions around a
// layer center into cones, used by the columnar shell tables of the
// core query path (internal/core).
//
// In two dimensions the layout is the literal Figure 11 picture:
// Sectors2D equal sectors. In higher dimensions full angular grids
// explode combinatorially, so directions are bucketed by the face of
// the enclosing cube they exit through — 2·d cones of half-angle
// acos(1/√d), the smallest aperture that still covers the sphere.
package shellgeom

import "math"

// Sectors2D is the number of angular sectors used in two dimensions.
const Sectors2D = 16

// Geometry is the bucket layout for one dimensionality. Every bucket
// is a cone of the same half-angle Alpha about its axis; a direction
// is assigned to exactly one bucket (ties broken deterministically by
// the lowest bucket index via strict comparisons).
type Geometry struct {
	Dim      int
	Axes     [][]float64 // unit cone axis per bucket
	Alpha    float64     // cone half-angle, shared by every bucket
	CosAlpha float64
	SinAlpha float64
}

// For returns the bucket geometry of the given dimension (dim ≥ 2).
func For(dim int) Geometry {
	g := Geometry{Dim: dim}
	if dim == 2 {
		width := 2 * math.Pi / float64(Sectors2D)
		g.Alpha = width / 2
		g.Axes = make([][]float64, Sectors2D)
		for s := range g.Axes {
			mid := (float64(s) + 0.5) * width // sector midline angle
			g.Axes[s] = []float64{math.Cos(mid), math.Sin(mid)}
		}
	} else {
		g.Alpha = math.Acos(1 / math.Sqrt(float64(dim)))
		g.Axes = make([][]float64, 2*dim)
		for j := 0; j < dim; j++ {
			for s, sign := range []float64{1, -1} {
				axis := make([]float64, dim)
				axis[j] = sign
				g.Axes[2*j+s] = axis
			}
		}
	}
	g.CosAlpha = math.Cos(g.Alpha)
	g.SinAlpha = math.Sin(g.Alpha)
	return g
}

// NumBuckets returns len(g.Axes).
func (g *Geometry) NumBuckets() int { return len(g.Axes) }

// Assign returns the bucket of a record direction diff = x − center.
// Deterministic for a given diff (no dependence on evaluation order),
// which keeps bucket-ordered slabs identical across builds and worker
// counts. The zero direction lands in bucket 0.
func (g *Geometry) Assign(diff []float64) int {
	if g.Dim == 2 {
		theta := math.Atan2(diff[1], diff[0])
		if theta < 0 {
			theta += 2 * math.Pi
		}
		s := int(theta / (2 * math.Pi / float64(Sectors2D)))
		if s >= Sectors2D {
			s = Sectors2D - 1
		}
		return s
	}
	best, bestAbs := 0, 0.0
	for j, v := range diff {
		if a := math.Abs(v); a > bestAbs {
			best, bestAbs = j, a
		}
	}
	s := 2 * best
	if diff[best] < 0 {
		s++
	}
	return s
}
