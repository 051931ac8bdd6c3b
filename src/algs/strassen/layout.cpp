#include "algs/strassen/layout.hpp"

#include "support/common.hpp"

namespace alge::algs {

std::size_t z_index(int r, int c, int s, int levels) {
  ALGE_REQUIRE(r >= 0 && r < s && c >= 0 && c < s,
               "element (%d,%d) out of range for s=%d", r, c, s);
  std::size_t idx = 0;
  for (int lvl = 0; lvl < levels; ++lvl) {
    ALGE_REQUIRE(s % 2 == 0, "s=%d not divisible at level %d", s, lvl);
    const int h = s / 2;
    const int quad = (r >= h ? 2 : 0) + (c >= h ? 1 : 0);
    idx += static_cast<std::size_t>(quad) * static_cast<std::size_t>(h) * h;
    r %= h;
    c %= h;
    s = h;
  }
  return idx + static_cast<std::size_t>(r) * s + c;
}

std::vector<double> to_z_order(std::span<const double> row_major, int s,
                               int levels) {
  ALGE_REQUIRE(row_major.size() == static_cast<std::size_t>(s) * s,
               "matrix must be s² = %d words", s * s);
  std::vector<double> z(row_major.size());
  for (int r = 0; r < s; ++r) {
    for (int c = 0; c < s; ++c) {
      z[z_index(r, c, s, levels)] = row_major[static_cast<std::size_t>(r) * s + c];
    }
  }
  return z;
}

std::vector<double> from_z_order(std::span<const double> z, int s,
                                 int levels) {
  ALGE_REQUIRE(z.size() == static_cast<std::size_t>(s) * s,
               "matrix must be s² = %d words", s * s);
  std::vector<double> m(z.size());
  for (int r = 0; r < s; ++r) {
    for (int c = 0; c < s; ++c) {
      m[static_cast<std::size_t>(r) * s + c] = z[z_index(r, c, s, levels)];
    }
  }
  return m;
}

std::vector<double> extract_share(std::span<const double> z, int g, int r) {
  ALGE_REQUIRE(g >= 1 && r >= 0 && r < g, "bad share (g=%d, r=%d)", g, r);
  ALGE_REQUIRE(z.size() % static_cast<std::size_t>(g) == 0,
               "g=%d must divide the vector length %zu", g, z.size());
  std::vector<double> share(z.size() / static_cast<std::size_t>(g));
  for (std::size_t i = 0; i < share.size(); ++i) {
    share[i] = z[i * static_cast<std::size_t>(g) + static_cast<std::size_t>(r)];
  }
  return share;
}

void place_share(std::span<double> z, int g, int r,
                 std::span<const double> share) {
  ALGE_REQUIRE(g >= 1 && r >= 0 && r < g, "bad share (g=%d, r=%d)", g, r);
  ALGE_REQUIRE(share.size() * static_cast<std::size_t>(g) == z.size(),
               "share length %zu times g=%d must equal %zu", share.size(), g,
               z.size());
  for (std::size_t i = 0; i < share.size(); ++i) {
    z[i * static_cast<std::size_t>(g) + static_cast<std::size_t>(r)] = share[i];
  }
}

}  // namespace alge::algs
