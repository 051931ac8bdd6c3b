#include "algs/registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <future>
#include <span>

#include "algs/fft/fft.hpp"
#include "algs/foldmaps.hpp"
#include "algs/lu/distributed.hpp"
#include "algs/lu/local.hpp"
#include "algs/matmul/distributed.hpp"
#include "algs/matmul/local.hpp"
#include "algs/nbody/nbody.hpp"
#include "algs/qr/tsqr.hpp"
#include "algs/strassen/caps.hpp"
#include "algs/strassen/layout.hpp"
#include "sim/comm.hpp"
#include "support/common.hpp"
#include "support/rng.hpp"
#include "topo/grid.hpp"

namespace alge::algs {

namespace {

using Outputs = std::vector<std::vector<double>>;
using sim::ConstPayload;
using sim::Payload;

/// Inputs built at most once per process, on the first get(), and shared by
/// every rank of one Instance and its verifier. Ghost runs never build them.
template <typename T>
using Lazy = std::shared_future<T>;

template <typename F>
auto lazy(F build) {
  return std::async(std::launch::deferred, std::move(build)).share();
}

std::size_t words(long long a, long long b) {
  return static_cast<std::size_t>(a) * static_cast<std::size_t>(b);
}

/// A rank's `n`-word payload: make()'s data, kept in `store`, in full-data
/// mode; a sizes-only view in ghost mode (make() never runs).
template <typename F>
Payload view(sim::Comm& comm, std::vector<double>& store, std::size_t n,
             F make) {
  if (comm.ghost()) return Payload::ghost(n);
  store = make();
  return Payload(store);
}

std::vector<double> zeros(std::size_t n) { return std::vector<double>(n); }

/// `len` words of the shared input from `off` (full data), or a view.
ConstPayload slice(sim::Comm& comm, const Lazy<std::vector<double>>& in,
                   std::size_t off, std::size_t len) {
  if (comm.ghost()) return ConstPayload::ghost(len);
  return std::span<const double>(in.get()).subspan(off, len);
}

// --- matmul (mm25d, summa) ---

struct Matrices {
  std::vector<double> a, b;
};

Lazy<Matrices> matrices(int n, std::uint64_t seed) {
  return lazy([n, seed] {
    Rng rng(seed);
    Matrices m;
    m.a = random_matrix(n, n, rng);
    m.b = random_matrix(n, n, rng);
    return m;
  });
}

/// Row-major (bi, bj) block of an n×n matrix on a q×q grid.
std::vector<double> block_of(const std::vector<double>& m, int n, int q,
                             int bi, int bj) {
  const int nb = n / q;
  std::vector<double> out(words(nb, nb));
  for (int r = 0; r < nb; ++r) {
    for (int c = 0; c < nb; ++c) {
      out[words(r, nb) + c] = m[words(bi * nb + r, n) + (bj * nb + c)];
    }
  }
  return out;
}

/// Calls body(a, b, c) with block (i, j) of A and B and a zeroed C block
/// kept in `output` — or with sizes-only views in ghost mode.
template <typename Body>
void with_blocks(sim::Comm& comm, const Lazy<Matrices>& in, int n, int q, int i,
                 int j, std::vector<double>& output, Body body) {
  const std::size_t nb2 = words(n / q, n / q);
  std::vector<double> a, b;
  body(view(comm, a, nb2, [&] { return block_of(in.get().a, n, q, i, j); }),
       view(comm, b, nb2, [&] { return block_of(in.get().b, n, q, i, j); }),
       view(comm, output, nb2, [&] { return zeros(nb2); }));
}

/// The layer-0 C blocks (rank i·q + j on both grids) against A·B.
auto matmul_verifier(int n, int q, Lazy<Matrices> in) {
  return [n, q, in](const Outputs& outs) {
    std::vector<double> ref(words(n, n), 0.0);
    matmul_add(in.get().a.data(), in.get().b.data(), ref.data(), n, n, n);
    double err = 0.0;
    for (int i = 0; i < q; ++i) {
      for (int j = 0; j < q; ++j) {
        err = std::max(err, max_abs_diff(outs[words(i, q) + j],
                                         block_of(ref, n, q, i, j)));
      }
    }
    return err;
  };
}

Instance make_mm25d(const Problem& pb) {
  const topo::Grid3D grid(pb.q, pb.c);
  ALGE_REQUIRE(pb.q % pb.c == 0, "replication factor c=%d must divide q=%d",
               pb.c, pb.q);
  ALGE_REQUIRE(pb.n > 0 && pb.n % pb.q == 0,
               "grid size q=%d must divide n=%d", pb.q, pb.n);
  const Mm25dOptions opts{pb.ring_replication};
  const auto in = matrices(pb.n, pb.seed);
  auto program = [n = pb.n, q = pb.q, grid, opts, in](
                     sim::Comm& comm, std::vector<double>& output) {
    const int r = comm.rank();
    if (grid.layer_of(r) != 0) {
      mm_25d(comm, grid, n, {}, {}, {}, opts);
      return;
    }
    with_blocks(comm, in, n, q, grid.row_of(r), grid.col_of(r), output,
                [&](Payload a, Payload b, Payload c) {
                  mm_25d(comm, grid, n, a, b, c, opts);
                });
  };
  return {grid.p(), program, matmul_verifier(pb.n, pb.q, in)};
}

Instance make_summa(const Problem& pb) {
  const topo::Grid2D grid(pb.q);
  ALGE_REQUIRE(pb.n > 0 && pb.n % pb.q == 0,
               "grid size q=%d must divide n=%d", pb.q, pb.n);
  const auto in = matrices(pb.n, pb.seed);
  auto program = [n = pb.n, q = pb.q, grid, in](sim::Comm& comm,
                                                std::vector<double>& output) {
    const int r = comm.rank();
    with_blocks(comm, in, n, q, grid.row_of(r), grid.col_of(r), output,
                [&](Payload a, Payload b, Payload c) {
                  summa_2d(comm, grid, n, a, b, c);
                });
  };
  return {grid.p(), program, matmul_verifier(pb.n, pb.q, in)};
}

// --- CAPS ---

struct CapsInputs {
  Matrices m;
  std::vector<double> az, bz;  ///< Z-ordered copies the shares come from
};

Instance make_caps(const Problem& pb) {
  const int p = caps_ranks(pb.k);
  ALGE_REQUIRE(caps_schedule_valid(pb.n, pb.k, pb.caps_schedule),
               "layout misaligned for n=%d, k=%d, schedule '%s'", pb.n, pb.k,
               pb.caps_schedule.c_str());
  // Z-order levels: one per schedule step ("" = k BFS steps).
  const int levels = pb.caps_schedule.empty()
                         ? pb.k
                         : static_cast<int>(pb.caps_schedule.size());
  const CapsOptions opts{pb.caps_schedule, pb.caps_cutoff};
  const std::size_t share = words(pb.n, pb.n) / static_cast<std::size_t>(p);
  const auto in = lazy([n = pb.n, seed = pb.seed, levels] {
    Rng rng(seed);
    CapsInputs x;
    x.m.a = random_matrix(n, n, rng);
    x.m.b = random_matrix(n, n, rng);
    x.az = to_z_order(x.m.a, n, levels);
    x.bz = to_z_order(x.m.b, n, levels);
    return x;
  });
  auto program = [n = pb.n, k = pb.k, p, opts, share, in](
                     sim::Comm& comm, std::vector<double>& output) {
    const int r = comm.rank();
    std::vector<double> a, b;
    caps_multiply(
        comm, n, k,
        view(comm, a, share, [&] { return extract_share(in.get().az, p, r); }),
        view(comm, b, share, [&] { return extract_share(in.get().bz, p, r); }),
        view(comm, output, share, [&] { return zeros(share); }), opts);
  };
  auto verify = [n = pb.n, p, levels, in](const Outputs& outs) {
    std::vector<double> cz(words(n, n), 0.0);
    for (int r = 0; r < p; ++r) {
      place_share(cz, p, r, outs[static_cast<std::size_t>(r)]);
    }
    std::vector<double> ref(words(n, n), 0.0);
    matmul_add(in.get().m.a.data(), in.get().m.b.data(), ref.data(), n, n,
               n);
    return max_abs_diff(from_z_order(cz, n, levels), ref);
  };
  return {p, program, verify};
}

// --- n-body ---

Instance make_nbody(const Problem& pb) {
  const topo::TeamGrid grid(pb.p, pb.c);
  ALGE_REQUIRE(pb.n > 0 && pb.n % grid.cols() == 0,
               "block count %d must divide n=%d", grid.cols(), pb.n);
  const int nb = pb.n / grid.cols();
  const auto in = lazy([n = pb.n, seed = pb.seed] {
    Rng rng(seed);
    return random_particles(n, rng);
  });
  auto program = [n = pb.n, grid, nb, in](sim::Comm& comm,
                                          std::vector<double>& output) {
    const int r = comm.rank();
    if (grid.row_of(r) != 0) {
      nbody_replicated(comm, grid, n, {}, {});
      return;
    }
    const std::size_t part_words = words(nb, kParticleWords);
    const std::size_t force_words = words(nb, kForceWords);
    nbody_replicated(
        comm, grid, n, slice(comm, in, grid.col_of(r) * part_words, part_words),
        view(comm, output, force_words, [&] { return zeros(force_words); }));
  };
  auto verify = [grid, in](const Outputs& outs) {
    std::vector<double> got;
    for (int j = 0; j < grid.cols(); ++j) {
      const auto& blk = outs[static_cast<std::size_t>(grid.rank_of(0, j))];
      got.insert(got.end(), blk.begin(), blk.end());
    }
    return max_abs_diff(got, direct_forces(in.get()));
  };
  return {grid.p(), program, verify};
}

// --- LU ---

/// Rank (row, col)'s block-cyclic share of A, laid out per BlockCyclic.
std::vector<double> lu_local_blocks(const std::vector<double>& a,
                                    const BlockCyclic& bc, int row, int col) {
  std::vector<double> dst(bc.local_words(), 0.0);
  for (int I = row; I < bc.nt(); I += bc.q) {
    for (int J = col; J < bc.nt(); J += bc.q) {
      for (int r = 0; r < bc.nb; ++r) {
        std::copy_n(a.data() + words(I * bc.nb + r, bc.n) + J * bc.nb, bc.nb,
                    dst.data() + bc.local_offset(I, J) + words(r, bc.nb));
      }
    }
  }
  return dst;
}

Instance make_lu(const Problem& pb) {
  const BlockCyclic bc{pb.n, pb.nb, pb.q};
  bc.validate();
  const auto in = lazy([n = pb.n, seed = pb.seed] {
    Rng rng(seed);
    return diagonally_dominant_matrix(n, rng);
  });
  // Layer-0 rank (row, col) is row·q + col on both grids.
  auto verify = [bc, in](const Outputs& outs) {
    auto serial = in.get();
    lu_factor_inplace(serial, bc.n);
    double err = 0.0;
    for (int row = 0; row < bc.q; ++row) {
      for (int col = 0; col < bc.q; ++col) {
        err = std::max(err,
                       max_abs_diff(outs[words(row, bc.q) + col],
                                    lu_local_blocks(serial, bc, row, col)));
      }
    }
    return err;
  };
  // c <= 1 runs lu_2d on the q×q grid: Grid3D(q, 1) numbers it alike.
  const topo::Grid3D grid(pb.q, std::max(pb.c, 1));
  auto program = [grid, bc, in, flat = pb.c <= 1](
                     sim::Comm& comm, std::vector<double>& output) {
    const int r = comm.rank();
    if (grid.layer_of(r) != 0) {
      lu_25d(comm, grid, bc, {});
      return;
    }
    // The rank's blocks, factored in place in `output` (or a ghost view).
    const Payload blocks = view(comm, output, bc.local_words(), [&] {
      return lu_local_blocks(in.get(), bc, grid.row_of(r), grid.col_of(r));
    });
    if (flat) {
      lu_2d(comm, topo::Grid2D(grid.q()), bc, blocks);
    } else {
      lu_25d(comm, grid, bc, blocks);
    }
  };
  return {grid.p(), program, verify};
}

// --- FFT ---

Instance make_fft(const Problem& pb) {
  const int p = pb.p;
  const int r_dim = pb.r_dim;
  const int c_dim = pb.c_dim;
  ALGE_REQUIRE(p >= 1 && r_dim % p == 0 && c_dim % p == 0,
               "p=%d must divide both FFT dimensions (%d x %d)", p, r_dim,
               c_dim);
  const int n = r_dim * c_dim;
  const int cl = c_dim / p;
  const int rl = r_dim / p;
  const auto in = lazy([n, seed = pb.seed] {
    Rng rng(seed);
    std::vector<double> x(2 * static_cast<std::size_t>(n));
    rng.fill_uniform(x, -1.0, 1.0);
    return x;
  });
  const AllToAllKind kind =
      pb.fft_bruck ? AllToAllKind::kBruck : AllToAllKind::kDirect;
  auto program = [n, r_dim, c_dim, cl, rl, kind, in](
                     sim::Comm& comm, std::vector<double>& output) {
    // Rank h holds columns h·cl .. h·cl + cl - 1 of the R×C input.
    auto columns = [&] {
      const std::vector<double>& x = in.get();
      std::vector<double> cols(2 * words(r_dim, cl));
      for (int jl = 0; jl < cl; ++jl) {
        const int j2 = comm.rank() * cl + jl;
        for (int j1 = 0; j1 < r_dim; ++j1) {
          cols[2 * (words(jl, r_dim) + j1)] = x[2 * (words(j1, c_dim) + j2)];
          cols[2 * (words(jl, r_dim) + j1) + 1] =
              x[2 * (words(j1, c_dim) + j2) + 1];
        }
      }
      return cols;
    };
    const std::size_t row_words = 2 * words(c_dim, rl);
    std::vector<double> cols;
    fft_parallel(comm, n, r_dim, c_dim,
                 view(comm, cols, 2 * words(r_dim, cl), columns),
                 view(comm, output, row_words,
                      [&] { return zeros(row_words); }),
                 kind);
  };
  auto verify = [n, r_dim, c_dim, rl, in](const Outputs& outs) {
    const auto ref = naive_dft(in.get(), n);
    double err = 0.0;
    for (int k1 = 0; k1 < r_dim; ++k1) {
      const auto& blk = outs[static_cast<std::size_t>(k1 / rl)];
      for (int k2 = 0; k2 < c_dim; ++k2) {
        const std::size_t src = 2 * (words(k1 % rl, c_dim) + k2);
        const std::size_t dst = 2 * (words(k2, r_dim) + k1);
        err = std::max(err, std::abs(blk[src] - ref[dst]));
        err = std::max(err, std::abs(blk[src + 1] - ref[dst + 1]));
      }
    }
    return err;
  };
  return {p, program, verify};
}

// --- TSQR ---

Instance make_tsqr(const Problem& pb) {
  const int rows_local = pb.n;
  const int b = pb.nb;
  const int p = pb.p;
  ALGE_REQUIRE(rows_local >= b && b >= 1 && p >= 1,
               "tsqr needs rows_local >= b >= 1 and p >= 1");
  const std::size_t lw = words(rows_local, b);
  const auto in = lazy([rows_local, b, p, seed = pb.seed] {
    Rng rng(seed);
    return random_matrix(rows_local * p, b, rng);
  });
  // Rank 0 receives the global R.
  auto program = [b, lw, in](sim::Comm& comm, std::vector<double>& output) {
    tsqr(comm, b, slice(comm, in, lw * comm.rank(), lw),
         comm.rank() == 0 ? view(comm, output, words(b, b),
                                 [&] { return zeros(words(b, b)); })
                          : Payload{});
  };
  // QᵀQ = I  =>  AᵀA = RᵀR: the factorization-independent check (R is only
  // unique up to row signs, so compare Gram matrices, not entries).
  auto verify = [rows_local, b, p, in](const Outputs& outs) {
    auto gram = [b](std::span<const double> a, int rows) {
      std::vector<double> g(words(b, b), 0.0);
      for (int i = 0; i < b; ++i) {
        for (int j = 0; j < b; ++j) {
          double s = 0.0;
          for (int row = 0; row < rows; ++row) {
            s += a[words(row, b) + i] * a[words(row, b) + j];
          }
          g[words(i, b) + j] = s;
        }
      }
      return g;
    };
    return max_abs_diff(gram(outs[0], b), gram(in.get(), rows_local * p));
  };
  return {p, program, verify};
}

// --- size presets: small valid problems per machine-size class ---

int isqrt(int p) {
  int q = static_cast<int>(std::sqrt(static_cast<double>(p)));
  while ((q + 1) * (q + 1) <= p) ++q;
  while (q > 1 && q * q > p) --q;
  return q;
}

/// q = 2 keeps problems tiny; c absorbs the rest when p is a multiple of q²
/// — but only while c divides q (p = 8 -> the 2×2×2 grid). Perfect squares
/// of q >= 3 run the q×q 2D grid instead, since Cannon only folds
/// nontrivially for q >= 3.
Problem grid_preset(const char* alg, int p) {
  const int q = isqrt(p);
  if (p % 4 == 0 && (p / 4 == 1 || p / 4 == 2)) {
    return {.alg = alg, .n = 16, .q = 2, .c = p / 4};
  }
  if (q >= 3 && q * q == p) return {.alg = alg, .n = 8 * q, .q = q, .c = 1};
  return {.alg = alg, .n = 16, .q = 2, .c = 1};
}

const std::vector<Entry>& table() {
  static const std::vector<Entry> entries = {
      {"mm25d", [](const Problem& pb) { return pb.q * pb.q * pb.c; },
       make_mm25d,
       [](const Problem& pb) {
         return foldmap_mm25d(pb.q, pb.c, pb.n / pb.q, pb.ring_replication);
       },
       [](int p) { return grid_preset("mm25d", p); }},
      {"summa", [](const Problem& pb) { return pb.q * pb.q; }, make_summa,
       [](const Problem& pb) { return foldmap_summa(pb.n, pb.q); },
       [](int p) {
         return Problem{.alg = "summa", .n = 8 * isqrt(p), .q = isqrt(p)};
       }},
      // CAPS runs on 7^k ranks; k = 1 is the smallest nontrivial tree, and
      // n = 14 the smallest even size with 7 | n² (share layout).
      {"caps", [](const Problem& pb) { return caps_ranks(pb.k); }, make_caps,
       [](const Problem& pb) { return foldmap_caps(caps_ranks(pb.k)); },
       [](int) { return Problem{.alg = "caps", .n = 14, .k = 1}; }},
      {"nbody", [](const Problem& pb) { return pb.p; }, make_nbody,
       [](const Problem& pb) { return foldmap_nbody(pb.p, pb.c); },
       [](int p) {
         const int c = p % 2 == 0 ? 2 : 1;
         return Problem{.alg = "nbody", .n = 4 * (p / c), .c = c, .p = p};
       }},
      {"lu", [](const Problem& pb) { return pb.q * pb.q * std::max(pb.c, 1); },
       make_lu,
       [](const Problem& pb) { return foldmap_lu(pb.n, pb.nb, pb.q, pb.c); },
       [](int p) {
         Problem pb = grid_preset("lu", p);
         pb.nb = 4;
         return pb;
       }},
      // FFT needs a power-of-two rank count (R and C are powers of two and
      // p divides both); size classes round down.
      {"fft", [](const Problem& pb) { return pb.p; }, make_fft,
       [](const Problem& pb) { return foldmap_fft(pb.p); },
       [](int p) {
         const int fp = static_cast<int>(std::bit_floor(
             static_cast<unsigned>(std::max(p, 1))));
         return Problem{.alg = "fft", .p = fp, .r_dim = 2 * fp,
                        .c_dim = 2 * fp};
       }},
      {"tsqr", [](const Problem& pb) { return pb.p; }, make_tsqr,
       [](const Problem& pb) { return foldmap_tsqr(pb.p); },
       [](int p) { return Problem{.alg = "tsqr", .n = 8, .p = p, .nb = 4}; }},
  };
  return entries;
}

}  // namespace

const std::vector<Entry>& all() { return table(); }

const Entry& find(std::string_view name) {
  for (const Entry& e : all()) {
    if (e.name == name) return e;
  }
  throw invalid_argument_error(strfmt("unknown algorithm '%.*s' (have: %s)",
                                      static_cast<int>(name.size()),
                                      name.data(), names_list().c_str()));
}

const std::vector<std::string>& names() {
  static const std::vector<std::string> v = [] {
    std::vector<std::string> out;
    for (const Entry& e : all()) out.emplace_back(e.name);
    return out;
  }();
  return v;
}

std::string names_list(std::string_view sep) {
  std::string out;
  for (const std::string& name : names()) {
    if (!out.empty()) out += sep;
    out += name;
  }
  return out;
}

RunResult run(const Problem& pb, sim::MachineConfig cfg, bool verify,
              const Inspect& inspect) {
  const Entry& entry = find(pb.alg);
  const Instance inst = entry.make(pb);
  cfg.p = inst.p;
  const bool ghost = cfg.data_mode == sim::DataMode::kGhost;
  ALGE_REQUIRE(!(ghost && verify),
               "ghost data mode measures cost, not output; run with "
               "verify=false");
  // Builders may return nullptr (no exact fold at this point): the machine
  // then stays on the per-fiber path, so attaching is always safe.
  if (cfg.exec_mode == sim::ExecMode::kFolded && cfg.fold == nullptr) {
    cfg.fold = entry.fold(pb);
  }
  sim::Machine m(cfg);
  Outputs outputs(ghost ? 0 : static_cast<std::size_t>(inst.p));
  m.run([&](sim::Comm& comm) {
    std::vector<double> none;
    inst.program(comm, ghost ? none
                             : outputs[static_cast<std::size_t>(comm.rank())]);
  });
  if (inspect) inspect(m);
  return {.p = m.p(),
          .makespan = m.makespan(),
          .totals = m.totals(),
          .energy = m.energy(),
          .max_abs_error = verify ? inst.verify(outputs) : 0.0,
          .verified = verify,
          .fold_slots = m.fold_active() ? m.num_slots() : 0};
}

}  // namespace alge::algs
