// Regenerates Table 1: UF-ECT failure rates under selective AVX2/FMA
// disablement. The module ranking comes from eigenvector centrality of the
// module quotient graph (paper §6.5); "largest" ranks by lines of code;
// "random" averages several draws.
//
// Paper values:   all on 92% | off 50 largest 86% | off 50 random 83%
//                 | off 50 central 8% | all off 2%   (of 561 modules)
// Expected shape: central-disabled collapses the failure rate; largest and
// random stay near all-on; all-off is the test's false-positive rate.
#include <algorithm>

#include "bench/bench_common.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

using namespace rca;

int main() {
  bench::banner("Table 1 — selective AVX2 (FMA) disablement",
                "paper: 92% / 86% / 83% / 8% / 2% on 561 modules, top-50 "
                "disablement; here scaled to the synthetic corpus");
  Stopwatch total;

  engine::PipelineConfig config = bench::default_config();
  engine::Pipeline pipe(config);
  const meta::Metagraph& mg = pipe.metagraph();

  // Module quotient graph (graph minor); modules rank by in- plus
  // out-eigenvector centrality on it.
  const auto& modules = mg.modules();
  const graph::Digraph quotient =
      graph::quotient_graph(mg.graph(), mg.module_classes(), modules.size());
  std::printf("module quotient graph: %zu nodes / %zu edges (paper: 561 / 4245)\n",
              quotient.node_count(), quotient.edge_count());

  // Scale the paper's 50-of-561 to our module count.
  const std::size_t k = std::max<std::size_t>(
      5, modules.size() * 50 / 561 + 5);
  std::printf("disabling FMA on top-%zu of %zu modules per policy\n\n", k,
              modules.size());

  const std::size_t kTrials = 16;
  auto rate = [&](const std::vector<std::string>& disabled, bool fma_on,
                  std::uint64_t seed0) {
    model::RunConfig rc = config.base_run;
    rc.fma_all = fma_on;
    rc.fma_disabled_modules = disabled;
    return ect::failure_rate(pipe.ect(), kTrials, [&](std::size_t t) {
      return model::experiment_set(pipe.control_model(), rc, 3,
                                   seed0 + t * 3, pipe.output_names());
    });
  };

  // Policies.
  std::vector<std::pair<std::size_t, std::string>> by_lines;
  for (const lang::Module* m : pipe.control_model().compiled_modules()) {
    by_lines.emplace_back(
        static_cast<std::size_t>(std::max(1, m->end_line - m->line + 1)),
        m->name);
  }
  std::sort(by_lines.rbegin(), by_lines.rend());
  std::vector<std::string> largest;
  for (std::size_t i = 0; i < k && i < by_lines.size(); ++i) {
    largest.push_back(by_lines[i].second);
  }

  std::vector<std::string> central;
  for (const meta::RankedNode& m : meta::rank(
           mg, graph::CentralityKind::kInOutEigenvector, {}, true, k)) {
    central.push_back(m.name);
  }
  std::printf("most central modules:");
  for (const auto& m : central) std::printf(" %s", m.c_str());
  std::printf("\nlargest modules by LoC:");
  for (const auto& m : largest) std::printf(" %s", m.c_str());
  std::printf("\n\n");

  const double all_on = rate({}, true, 9000);
  const double off_largest = rate(largest, true, 9100);

  double off_random = 0.0;
  const std::size_t kRandomDraws = 6;  // paper averages 10 draws
  SplitMix64 rng(4242);
  for (std::size_t draw = 0; draw < kRandomDraws; ++draw) {
    std::vector<std::size_t> idx(modules.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::vector<std::string> random_mods;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + rng.next() % (idx.size() - i);
      std::swap(idx[i], idx[j]);
      random_mods.push_back(modules[idx[i]]);
    }
    off_random += rate(random_mods, true, 9200 + draw * 100);
  }
  off_random /= static_cast<double>(kRandomDraws);

  const double off_central = rate(central, true, 9300);
  const double all_off = rate({}, false, 9400);

  Table table("Table 1 — UF-ECT failure rates");
  table.set_header({"Experiment", "measured", "paper"});
  table.add_row({"AVX2 enabled, all modules", Table::percent(all_on), "92%"});
  table.add_row({Table::num(static_cast<double>(k), 0) +
                     " largest modules disabled",
                 Table::percent(off_largest), "86%"});
  table.add_row({Table::num(static_cast<double>(k), 0) +
                     " random modules disabled (avg of 6 draws)",
                 Table::percent(off_random), "83%"});
  table.add_row({Table::num(static_cast<double>(k), 0) +
                     " most central modules disabled",
                 Table::percent(off_central), "8%"});
  table.add_row({"AVX2 disabled, all modules", Table::percent(all_off), "2%"});
  table.print(std::cout);

  const bool shape_holds = off_central < 0.5 * std::min(all_on, off_random) &&
                           all_off <= off_central + 0.15 &&
                           all_on >= 0.5 && off_largest >= 0.5;
  std::printf("\nshape check (central << largest/random/all-on; all-off "
              "baseline): %s\n", shape_holds ? "HOLDS" : "VIOLATED");
  std::printf("elapsed: %.1fs\n", total.seconds());
  return shape_holds ? 0 : 1;
}
