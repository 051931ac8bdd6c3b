#include "algs/nbody/nbody.hpp"

#include <vector>

#include "algs/kernels.hpp"
#include "support/common.hpp"

namespace alge::algs {

std::vector<double> random_particles(int n, Rng& rng) {
  ALGE_REQUIRE(n >= 0, "negative particle count");
  std::vector<double> p(static_cast<std::size_t>(n) * kParticleWords);
  for (int i = 0; i < n; ++i) {
    double* q = p.data() + static_cast<std::size_t>(i) * kParticleWords;
    q[0] = rng.uniform(0.0, 1.0);
    q[1] = rng.uniform(0.0, 1.0);
    q[2] = rng.uniform(0.0, 1.0);
    q[3] = rng.uniform(0.5, 1.5);
  }
  return p;
}

double accumulate_forces(std::span<const double> targets,
                         std::span<const double> sources,
                         std::span<double> forces, bool same_block) {
  ALGE_REQUIRE(targets.size() % kParticleWords == 0 &&
                   sources.size() % kParticleWords == 0,
               "particle buffers must be multiples of %d words",
               kParticleWords);
  const std::size_t nt = targets.size() / kParticleWords;
  const std::size_t ns = sources.size() / kParticleWords;
  ALGE_REQUIRE(forces.size() == nt * kForceWords,
               "forces must be %zu words", nt * kForceWords);
  if (same_block) {
    ALGE_REQUIRE(nt == ns, "same_block requires equal sizes");
  }
  kernels::active().forces(targets.data(), nt, sources.data(), ns,
                           forces.data(), same_block);
  const double pairs = static_cast<double>(nt) * static_cast<double>(ns);
  return same_block ? pairs - static_cast<double>(nt) : pairs;
}

std::vector<double> direct_forces(std::span<const double> particles) {
  const std::size_t n = particles.size() / kParticleWords;
  std::vector<double> forces(n * kForceWords, 0.0);
  accumulate_forces(particles, particles, forces, /*same_block=*/true);
  return forces;
}

void nbody_replicated(sim::Comm& comm, const topo::TeamGrid& grid, int n,
                      sim::ConstPayload my_particles,
                      sim::Payload my_forces) {
  const int P = grid.cols();  // number of particle blocks
  const int c = grid.rows();  // replication factor
  ALGE_REQUIRE(grid.p() <= comm.size(), "grid larger than the machine");
  ALGE_REQUIRE(n > 0 && n % P == 0, "block count %d must divide n=%d", P, n);
  const bool gm = comm.ghost();
  const int nb = n / P;  // particles per block
  const std::size_t part_words = static_cast<std::size_t>(nb) * kParticleWords;
  const std::size_t force_words = static_cast<std::size_t>(nb) * kForceWords;
  const int i = grid.row_of(comm.rank());
  const int j = grid.col_of(comm.rank());
  if (i == 0) {
    ALGE_REQUIRE(my_particles.size() == part_words &&
                     my_forces.size() == force_words,
                 "row-0 ranks pass %zu particle and %zu force words",
                 part_words, force_words);
  } else {
    ALGE_REQUIRE(my_particles.empty() && my_forces.empty(),
                 "non-root team members pass empty payloads");
  }
  const sim::Group team = grid.team_group(j);
  constexpr int kTagShift = 301;

  // Replicate block j down the team column.
  sim::Buffer resident = comm.alloc(part_words);
  if (i == 0 && !gm) {
    std::copy(my_particles.span().begin(), my_particles.span().end(),
              resident.data());
  }
  comm.bcast(resident.view(), /*root=*/0, team);

  // Member i handles source-block ring offsets o ≡ i (mod c), o < P.
  sim::Buffer traveling = comm.alloc(part_words);
  sim::Buffer scratch = comm.alloc(part_words);
  sim::Buffer partial = comm.alloc(force_words);
  auto row_rank = [&](int col) {
    return grid.rank_of(i, ((col % P) + P) % P);
  };
  int steps = 0;
  for (int o = i; o < P; o += c) ++steps;
  if (steps > 0) {
    // Fetch block (j + i): my replica travels to the rank i columns left.
    comm.sendrecv(row_rank(j - i), resident.view(), row_rank(j + i),
                  traveling.view(), kTagShift);
    for (int t = 0; t < steps; ++t) {
      const int o = i + t * c;
      // The interaction count is data-independent: every target-source
      // pair except the diagonal of the o == 0 block. Full mode evaluates
      // the kernel; both modes charge the same analytic pair count.
      const double pairs =
          static_cast<double>(nb) * nb - (o == 0 ? nb : 0);
      if (!gm) {
        accumulate_forces(resident.span(), traveling.span(), partial.span(),
                          /*same_block=*/o == 0);
      }
      comm.compute(kInteractionFlops * pairs);
      if (t + 1 < steps) {
        comm.sendrecv(row_rank(j - c), traveling.view(), row_rank(j + c),
                      scratch.view(), kTagShift);
        if (!gm) {
          std::copy(scratch.data(), scratch.data() + part_words,
                    traveling.data());
        }
      }
    }
  }

  // Sum the team's partial forces back to the block owner.
  comm.reduce_sum(partial.view(), i == 0 ? my_forces : sim::Payload{},
                  /*root=*/0, team);
}

}  // namespace alge::algs
