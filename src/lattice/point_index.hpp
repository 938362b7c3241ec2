// Dense integer indexing of finite point sets — the engine's id space.
//
// Every hot path in the library (torus search, slot lookup, collision
// checking, conflict-graph and simulator construction) ultimately asks the
// same question: "which small integer is this lattice point?"  The seed
// answered it with hash maps (`PointMap`), paying a hash + probe per query
// inside the innermost loops.  `PointIndexer` answers it with arithmetic: a
// point set is embedded in an axis-aligned grid, an id is the mixed-radix
// (strided) linear coordinate, and both directions of the lookup are O(d)
// integer operations with no hashing and no allocation.
//
// Two construction modes cover the library's uses:
//  * for_box:        every point of a Box, ids in Box::points() order
//                    (odometer, last axis fastest);
//  * for_sublattice: the canonical coset representatives of a full-rank
//                    sublattice, ids in coset_representatives() order
//                    (first axis fastest) — the HNF reduce() image is
//                    exactly the box [0, H[0][0]) x ... x [0, H[d-1][d-1]),
//                    so coset ids are a perfect dense code.
//
// Both are pure arithmetic: every grid point is indexed.  Callers indexing
// a sparse subset (a deployment's sensors) keep their own id table over a
// box index — see Deployment::coverage_grid.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "lattice/point.hpp"
#include "lattice/region.hpp"
#include "lattice/sublattice.hpp"

namespace latticesched {

class PointIndexer {
 public:
  /// Sentinel returned by id_of for points outside the indexed set.
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;

  /// Indexes every point of `box`; ids follow Box::points() order.
  static PointIndexer for_box(const Box& box);

  /// Indexes the canonical coset representatives of `m`; ids follow
  /// Sublattice::coset_representatives() order, so
  /// point_of(i) == m.coset_representatives()[i].
  static PointIndexer for_sublattice(const Sublattice& m);

  std::size_t dim() const { return dim_; }
  /// Number of indexed points; valid ids are [0, size()).
  std::size_t size() const { return size_; }
  /// The grid hull the ids live in.
  const Box& bounds() const { return bounds_; }

  /// Id of p, or kInvalid when p lies outside the grid.  O(d), no
  /// hashing.
  std::uint32_t id_of(const Point& p) const {
    if (p.dim() != dim_) return kInvalid;
    std::uint64_t linear = 0;
    for (std::size_t i = 0; i < dim_; ++i) {
      const std::int64_t c = p[i] - lo_[i];
      if (c < 0 || c >= extent_[i]) return kInvalid;
      linear += static_cast<std::uint64_t>(c) * stride_[i];
    }
    return static_cast<std::uint32_t>(linear);
  }

  bool contains(const Point& p) const { return id_of(p) != kInvalid; }

  /// Inverse map; id must be < size().  O(d) decode.
  Point point_of(std::uint32_t id) const;

  /// Materializes point_of for all ids (in id order).
  PointVec points() const;

 private:
  PointIndexer(Point lo, std::array<std::int64_t, kMaxDim> extent,
               bool axis0_fastest);

  std::size_t dim_ = 0;
  std::size_t size_ = 0;
  Point lo_;
  Box bounds_;
  std::array<std::int64_t, kMaxDim> extent_{};
  std::array<std::uint64_t, kMaxDim> stride_{};
  bool axis0_fastest_ = false;
};

}  // namespace latticesched
