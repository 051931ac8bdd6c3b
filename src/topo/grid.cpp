#include "topo/grid.hpp"

#include <cmath>
#include <limits>

#include "support/common.hpp"

namespace alge::topo {

int exact_isqrt(int p) {
  if (p < 0) return -1;
  const int r = static_cast<int>(std::lround(std::sqrt(static_cast<double>(p))));
  for (int cand = std::max(0, r - 1); cand <= r + 1; ++cand) {
    if (cand * cand == p) return cand;
  }
  return -1;
}

int exact_icbrt(int p) {
  if (p < 0) return -1;
  const int r = static_cast<int>(std::lround(std::cbrt(static_cast<double>(p))));
  for (int cand = std::max(0, r - 1); cand <= r + 1; ++cand) {
    if (cand * cand * cand == p) return cand;
  }
  return -1;
}

// --- Ring ---

Ring::Ring(int p) : p_(p) { ALGE_REQUIRE(p >= 1, "ring needs p >= 1"); }

int Ring::right_of(int rank, int steps) const {
  ALGE_REQUIRE(rank >= 0 && rank < p_, "rank %d out of range", rank);
  const int s = ((steps % p_) + p_) % p_;
  return (rank + s) % p_;
}

int Ring::left_of(int rank, int steps) const { return right_of(rank, -steps); }

// --- Grid2D ---

Grid2D::Grid2D(int q) : q_(q) {
  ALGE_REQUIRE(q >= 1, "grid needs q >= 1");
  ALGE_REQUIRE(static_cast<double>(q) * q <= std::numeric_limits<int>::max(),
               "grid %d x %d has more ranks than an int holds", q, q);
}

Grid2D Grid2D::for_p(int p) {
  const int q = exact_isqrt(p);
  ALGE_REQUIRE(q > 0, "p=%d is not a perfect square", p);
  return Grid2D(q);
}

int Grid2D::rank_of(int i, int j) const {
  ALGE_REQUIRE(i >= 0 && i < q_ && j >= 0 && j < q_,
               "grid coordinate (%d,%d) out of range for q=%d", i, j, q_);
  return i * q_ + j;
}

int Grid2D::row_of(int rank) const {
  ALGE_REQUIRE(rank >= 0 && rank < p(), "rank %d out of range", rank);
  return rank / q_;
}

int Grid2D::col_of(int rank) const {
  ALGE_REQUIRE(rank >= 0 && rank < p(), "rank %d out of range", rank);
  return rank % q_;
}

Group Grid2D::row_group(int i) const {
  return Group::strided(rank_of(i, 0), q_, 1);
}

Group Grid2D::col_group(int j) const {
  return Group::strided(rank_of(0, j), q_, q_);
}

// --- Grid3D ---

Grid3D::Grid3D(int q, int c) : q_(q), c_(c) {
  ALGE_REQUIRE(q >= 1 && c >= 1, "grid needs q,c >= 1");
  ALGE_REQUIRE(
      static_cast<double>(q) * q * c <= std::numeric_limits<int>::max(),
      "grid %d x %d x %d has more ranks than an int holds", q, q, c);
}

Grid3D Grid3D::for_p(int p, int c) {
  ALGE_REQUIRE(c >= 1 && p % c == 0, "c=%d must divide p=%d", c, p);
  const int q = exact_isqrt(p / c);
  ALGE_REQUIRE(q > 0, "p/c=%d is not a perfect square", p / c);
  return Grid3D(q, c);
}

int Grid3D::rank_of(int i, int j, int l) const {
  ALGE_REQUIRE(i >= 0 && i < q_ && j >= 0 && j < q_ && l >= 0 && l < c_,
               "grid coordinate (%d,%d,%d) out of range for q=%d c=%d", i, j,
               l, q_, c_);
  return l * q_ * q_ + i * q_ + j;
}

int Grid3D::row_of(int rank) const {
  ALGE_REQUIRE(rank >= 0 && rank < p(), "rank %d out of range", rank);
  return (rank % (q_ * q_)) / q_;
}

int Grid3D::col_of(int rank) const {
  ALGE_REQUIRE(rank >= 0 && rank < p(), "rank %d out of range", rank);
  return rank % q_;
}

int Grid3D::layer_of(int rank) const {
  ALGE_REQUIRE(rank >= 0 && rank < p(), "rank %d out of range", rank);
  return rank / (q_ * q_);
}

Group Grid3D::row_group(int i, int l) const {
  return Group::strided(rank_of(i, 0, l), q_, 1);
}

Group Grid3D::col_group(int j, int l) const {
  return Group::strided(rank_of(0, j, l), q_, q_);
}

Group Grid3D::depth_group(int i, int j) const {
  return Group::strided(rank_of(i, j, 0), c_, q_ * q_);
}

Group Grid3D::layer_group(int l) const {
  return Group::strided(rank_of(0, 0, l), q_ * q_, 1);
}

// --- TeamGrid ---

TeamGrid::TeamGrid(int p, int c) : rows_(c), cols_(p / c) {
  ALGE_REQUIRE(c >= 1 && p >= 1 && p % c == 0,
               "replication factor c=%d must divide p=%d", c, p);
}

int TeamGrid::rank_of(int i, int j) const {
  ALGE_REQUIRE(i >= 0 && i < rows_ && j >= 0 && j < cols_,
               "team coordinate (%d,%d) out of range", i, j);
  return i * cols_ + j;
}

int TeamGrid::row_of(int rank) const {
  ALGE_REQUIRE(rank >= 0 && rank < p(), "rank %d out of range", rank);
  return rank / cols_;
}

int TeamGrid::col_of(int rank) const {
  ALGE_REQUIRE(rank >= 0 && rank < p(), "rank %d out of range", rank);
  return rank % cols_;
}

Group TeamGrid::team_group(int j) const {
  return Group::strided(rank_of(0, j), rows_, cols_);
}

Group TeamGrid::row_group(int i) const {
  return Group::strided(rank_of(i, 0), cols_, 1);
}

}  // namespace alge::topo
