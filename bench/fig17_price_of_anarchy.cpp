// Figure 17 / Theorem 1: the Price of Anarchy of CONGA's bottleneck routing
// game on Leaf-Spine networks is at most 2, and in practice equilibria are
// near-optimal.
//
// The bench (a) solves the paper's Fig 2/Fig 3 instances exactly (LP optimum
// vs best-response equilibrium), and (b) sweeps random Leaf-Spine instances,
// reporting the worst Nash-vs-optimal ratio found across many adversarial
// starting points — empirically verifying ratio <= 2 and "much closer to
// optimal in practice".
#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/bottleneck_game.hpp"
#include "bench_util.hpp"
#include "sim/random.hpp"

using namespace conga;
using namespace conga::analysis;

namespace {

void named_instance(const char* name, const LeafSpineGame& g) {
  GameFlow opt;
  const double b_opt = optimal_bottleneck(g, &opt);
  sim::Rng rng(1);
  double worst = 0;
  for (int start = 0; start < 50; ++start) {
    GameFlow f = random_flow(g, rng);
    best_response_dynamics(g, f);
    if (is_nash(g, f, 1e-6)) {
      worst = std::max(worst, network_bottleneck(g, f));
    }
  }
  std::printf("%-28s optimal B*=%7.4f   worst Nash B=%7.4f   PoA=%5.3f\n",
              name, b_opt, worst, worst / b_opt);
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::read_flags(argc, argv).full;
  bench::print_header("Fig 17 / Theorem 1 — Price of Anarchy of the CONGA game",
                      full);

  // The Fig 2 instance.
  {
    LeafSpineGame g = LeafSpineGame::uniform(2, 2, 80);
    g.down[1][1] = 40;
    g.users.push_back({0, 1, 100});
    named_instance("Fig2 (single user)", g);
  }
  // The Fig 3(b) instance.
  {
    LeafSpineGame g = LeafSpineGame::uniform(3, 2, 40);
    g.up[0][1] = 0;
    g.users.push_back({1, 2, 80});
    g.users.push_back({0, 2, 40});
    named_instance("Fig3b (two users)", g);
  }
  // Shared-destination contention.
  {
    LeafSpineGame g = LeafSpineGame::uniform(3, 3, 10);
    g.users.push_back({0, 2, 12});
    g.users.push_back({1, 2, 12});
    named_instance("shared destination", g);
  }

  // Random sweep.
  const int instances = full ? 500 : 100;
  const int starts = full ? 20 : 8;
  sim::Rng rng(2026);
  double worst_ratio = 1.0;
  double sum_ratio = 0;
  int counted = 0;
  for (int i = 0; i < instances; ++i) {
    LeafSpineGame g;
    g.num_leaves = 2 + static_cast<int>(rng.index(4));
    g.num_spines = 2 + static_cast<int>(rng.index(4));
    g.up.assign(static_cast<std::size_t>(g.num_leaves),
                std::vector<double>(static_cast<std::size_t>(g.num_spines)));
    g.down.assign(static_cast<std::size_t>(g.num_spines),
                  std::vector<double>(static_cast<std::size_t>(g.num_leaves)));
    for (int l = 0; l < g.num_leaves; ++l) {
      for (int s = 0; s < g.num_spines; ++s) {
        g.up[static_cast<std::size_t>(l)][static_cast<std::size_t>(s)] =
            rng.chance(0.15) ? 0.0 : 10 + rng.uniform() * 90;  // some failures
        g.down[static_cast<std::size_t>(s)][static_cast<std::size_t>(l)] =
            rng.chance(0.15) ? 0.0 : 10 + rng.uniform() * 90;
      }
    }
    const int users = 2 + static_cast<int>(rng.index(5));
    for (int u = 0; u < users; ++u) {
      int src = static_cast<int>(rng.index(static_cast<std::size_t>(g.num_leaves)));
      int dst = static_cast<int>(rng.index(static_cast<std::size_t>(g.num_leaves)));
      while (dst == src) {
        dst = static_cast<int>(
            rng.index(static_cast<std::size_t>(g.num_leaves)));
      }
      g.users.push_back({src, dst, 5 + rng.uniform() * 40});
    }
    const double opt = optimal_bottleneck(g);
    if (!(opt > 0) || opt > 1e9) continue;  // infeasible instance
    double worst_nash = 0;
    for (int s = 0; s < starts; ++s) {
      GameFlow f = random_flow(g, rng);
      best_response_dynamics(g, f);
      if (is_nash(g, f, 1e-6)) {
        worst_nash = std::max(worst_nash, network_bottleneck(g, f));
      }
    }
    if (worst_nash == 0) continue;
    const double ratio = worst_nash / opt;
    worst_ratio = std::max(worst_ratio, ratio);
    sum_ratio += ratio;
    ++counted;
  }

  std::printf("\nrandom sweep: %d instances x %d adversarial starts\n", counted,
              starts);
  std::printf("mean Nash/optimal ratio: %.4f\n", sum_ratio / counted);
  std::printf("worst Nash/optimal ratio: %.4f   (Theorem 1 bound: 2)\n",
              worst_ratio);
  std::printf("\npaper: PoA = 2 in the worst case, but 'in practice the "
              "performance of CONGA is much closer to optimal'.\n");
  return worst_ratio <= 2.0 + 1e-6 ? 0 : 1;
}
