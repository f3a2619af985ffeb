package graph

import (
	"mstc/internal/geom"
)

// Geometric constructions over a point set. These are the *centralized*
// (omniscient) versions used as ground truth: on a static network a correct
// localized protocol must select exactly these edges (RNG, Gabriel) or a
// superset with identical connectivity (LMST vs. PrimMST of UnitDisk).

// UnitDisk returns the unit-disk graph: an edge between every pair of points
// at distance <= r, weighted by Euclidean distance. This models the original
// topology under the normal transmission range.
func UnitDisk(pts []geom.Point, r float64) *Undirected {
	g := NewUndirected(len(pts))
	r2 := r * r
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d2 := pts[i].Dist2(pts[j]); d2 <= r2 {
				g.AddEdge(i, j, pts[i].Dist(pts[j]))
			}
		}
	}
	return g
}

// RNGGraph returns the relative neighborhood graph restricted to pairs at
// distance <= maxRange: edge (u, v) survives unless some witness w has
// d(u, w) < d(u, v) and d(v, w) < d(u, v) (Toussaint 1980).
func RNGGraph(pts []geom.Point, maxRange float64) *Undirected {
	g := NewUndirected(len(pts))
	r2 := maxRange * maxRange
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist2(pts[j]) > r2 {
				continue
			}
			if !hasLuneWitness(pts, i, j) {
				g.AddEdge(i, j, pts[i].Dist(pts[j]))
			}
		}
	}
	return g
}

func hasLuneWitness(pts []geom.Point, i, j int) bool {
	for w := range pts {
		if w == i || w == j {
			continue
		}
		if geom.InLune(pts[w], pts[i], pts[j]) {
			return true
		}
	}
	return false
}

// GabrielGraph returns the Gabriel graph restricted to pairs at distance
// <= maxRange: edge (u, v) survives unless some witness lies strictly inside
// the disk with diameter uv (Gabriel & Sokal 1969).
func GabrielGraph(pts []geom.Point, maxRange float64) *Undirected {
	g := NewUndirected(len(pts))
	r2 := maxRange * maxRange
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist2(pts[j]) > r2 {
				continue
			}
			witness := false
			for w := range pts {
				if w != i && w != j && geom.InGabrielDisk(pts[w], pts[i], pts[j]) {
					witness = true
					break
				}
			}
			if !witness {
				g.AddEdge(i, j, pts[i].Dist(pts[j]))
			}
		}
	}
	return g
}
