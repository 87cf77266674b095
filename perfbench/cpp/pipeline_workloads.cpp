// The two pipeline workloads.
//
// paper-analyze: the six paper experiments one after another, each through a
// fresh engine::Pipeline at the `rca-tool analyze` defaults (30 members,
// simulated sampler) with 4 worker threads — what a user pays per analyze.
// Interpreter runs dominate; graph work is a few per cent.
//
// scenario-runtime: one shared Pipeline (40 members, 4 threads) scoring the
// 7-scenario library with real runtime sampling and top-15 scoring, like
// `rca-tool score --runtime --jobs 4`. The same interpreter layer, used
// through short watch-instrumented control/experiment runs inside
// refinement; the ensemble cost sits in set-up.
//
// Untraced runs call the public Pipeline API. Traced runs compose the same
// stages from the modules' public functions (TracedPipeline below mirrors
// engine::Pipeline step by step) so each call can be timed from outside,
// and hand the refinement engine a timing decorator around the sampler.
// Both paths go through the same correctness checks, so a traced
// composition that drifted from the Pipeline fails them.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <random>

#include "campaign/score.hpp"
#include "cov/coverage_filter.hpp"
#include "engine/pipeline.hpp"
#include "graph/centrality.hpp"
#include "harness.hpp"
#include "meta/builder.hpp"
#include "model/experiments.hpp"
#include "model/scenario.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

using rca::graph::NodeId;
namespace engine = rca::engine;
namespace model = rca::model;

namespace {

constexpr std::size_t kThreads = 4;
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kTopM = 15;

// -- workload definitions ----------------------------------------------------

std::vector<model::ExperimentId> paper_experiments(bool smoke) {
  if (smoke) return {model::ExperimentId::kWsubBug, model::ExperimentId::kRandMt};
  return {model::ExperimentId::kWsubBug,    model::ExperimentId::kRandMt,
          model::ExperimentId::kGoffGratch, model::ExperimentId::kAvx2,
          model::ExperimentId::kRandomBug,  model::ExperimentId::kDyn3Bug};
}

std::vector<const model::ScenarioSpec*> library_scenarios(bool smoke) {
  std::vector<const model::ScenarioSpec*> out;
  for (const model::ScenarioSpec& s : model::scenario_library()) {
    if (!smoke || s.name == "wsub" || s.name == "prng") out.push_back(&s);
  }
  return out;
}

engine::PipelineConfig analyze_config() {
  engine::PipelineConfig cfg;
  cfg.ensemble_members = 30;
  cfg.corpus.seed = kCorpusSeed;
  cfg.threads = kThreads;
  return cfg;
}

engine::PipelineConfig score_config(const Options& opts) {
  engine::PipelineConfig cfg;
  cfg.ensemble_members = opts.smoke ? 20 : 40;
  cfg.corpus.seed = kCorpusSeed;
  cfg.threads = kThreads;
  cfg.refinement.rank_differences_on_stall = true;
  return cfg;
}

/// Seeded permutation of [0, n): the workload seed decides the order in
/// which each round runs its operations. Raw engine output only, so the
/// order is the same on every standard library.
std::vector<std::size_t> round_order(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

// -- scoring (the `rca-tool score` scoreboard, rebuilt per round) -----------

/// Best planted rank under eigenvector in-centrality over the subgraph
/// induced on `nodes`: the rank `rca-tool score` reports.
std::size_t centrality_rank(const rca::graph::Digraph& full,
                            const std::vector<NodeId>& nodes,
                            const std::vector<NodeId>& planted) {
  if (nodes.empty()) return SIZE_MAX;
  const rca::graph::Digraph sub = rca::graph::induced_subgraph(full, nodes);
  const std::vector<double> scores = rca::graph::eigenvector_centrality(
      sub, rca::graph::Direction::kIn);
  std::vector<NodeId> ranked;
  ranked.reserve(nodes.size());
  for (NodeId local : rca::graph::top_k(scores, nodes.size())) {
    ranked.push_back(nodes[local]);
  }
  return model::best_rank(ranked, planted);
}

rca::campaign::ScenarioScore score_outcome(
    const model::ScenarioSpec& s, const engine::ExperimentOutcome& out,
    const rca::graph::Digraph& full, Trace& trace) {
  auto span = trace.span("score.rank");
  rca::campaign::ScenarioScore score;
  score.name = s.name;
  score.kind = model::cause_kind_name(s.kind);
  score.planted_nodes = out.bug_nodes.size();
  score.ect_detected = !out.verdict.pass;
  score.slice_nodes = out.slice.nodes.size();
  score.final_nodes = out.refinement.final_nodes.size();
  score.iterations = out.refinement.iterations.size();
  score.stalled = out.refinement.stalled;
  score.bug_in_final =
      model::contains_any(out.refinement.final_nodes, out.bug_nodes);
  score.bug_instrumented_at = out.refinement.bug_instrumented_at;
  score.baseline_rank = centrality_rank(full, out.slice.nodes, out.bug_nodes);
  score.refined_rank =
      centrality_rank(full, out.refinement.final_nodes, out.bug_nodes);
  score.hit = score.refined_rank < kTopM;
  return score;
}

/// Scores in library order (whatever order the round ran them in), so the
/// document is comparable across workload seeds.
rca::campaign::Scoreboard make_board(
    std::vector<rca::campaign::ScenarioScore> scores) {
  rca::campaign::Scoreboard board;
  board.top_m = kTopM;
  board.scores = std::move(scores);
  for (const auto& score : board.scores) {
    if (score.hit) ++board.hits;
    if (score.kind == "fp-contraction" || score.kind == "fp-reassociation") {
      ++board.fp_scenarios;
    }
  }
  board.hit_rate = board.scores.empty()
                       ? 0.0
                       : static_cast<double>(board.hits) /
                             static_cast<double>(board.scores.size());
  return board;
}

bool retained(const engine::ExperimentOutcome& out) {
  return model::contains_any(out.refinement.final_nodes, out.bug_nodes);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// -- traced composition ------------------------------------------------------

/// Timing decorator around the sampler the refinement engine calls. Spans
/// are parented to the enclosing refinement span explicitly, because the
/// engine calls the sampler from its pool threads.
class TimedSampler : public engine::Sampler {
 public:
  TimedSampler(engine::Sampler& inner, Trace& trace, std::uint32_t parent)
      : inner_(inner), trace_(trace), parent_(parent) {}

  std::vector<NodeId> detect_differences(
      const std::vector<NodeId>& sites) override {
    auto span = trace_.span_under("engine.sampler", parent_);
    return inner_.detect_differences(sites);
  }
  std::vector<engine::Difference> detect_with_magnitudes(
      const std::vector<NodeId>& sites) override {
    auto span = trace_.span_under("engine.sampler", parent_);
    return inner_.detect_with_magnitudes(sites);
  }

 private:
  engine::Sampler& inner_;
  Trace& trace_;
  std::uint32_t parent_;
};

/// engine::Pipeline, stage by stage, with a span around every call into a
/// module. Keep in step with src/engine/pipeline.cpp: the correctness checks
/// (verdicts, retention, the expected scoreboard) catch drift.
class TracedPipeline {
 public:
  TracedPipeline(engine::PipelineConfig config, Trace& trace)
      : config_(std::move(config)), trace_(&trace) {
    if (config_.threads > 0) {
      pool_ = std::make_unique<rca::ThreadPool>(config_.threads);
      config_.refinement.pool = pool_.get();
    }
    {
      auto span = trace_->span("model.load");
      control_ = std::make_unique<model::CesmModel>(config_.corpus, pool_.get());
    }
    RCA_CHECK_MSG(control_->parse_failures() == 0,
                  "control corpus failed to parse");
    {
      auto span = trace_->span("model.coverage_run");
      coverage_ = control_->coverage_run(2);
    }
    {
      auto span = trace_->span("meta.build");
      filter_ = rca::cov::CoverageFilter(coverage_, &control_->compiled_modules());
      rca::meta::BuilderOptions builder_opts;
      builder_opts.module_filter = filter_.module_predicate();
      builder_opts.subprogram_filter = filter_.subprogram_predicate();
      builder_opts.pool = pool_.get();
      mg_ = rca::meta::build_metagraph(control_->compiled_modules(),
                                       builder_opts);
    }
    {
      auto span = trace_->span("model.ensemble");
      ensemble_ = model::ensemble_matrix(*control_, config_.base_run,
                                         config_.ensemble_members, &names_, 1);
    }
    runs_in_spans_ += config_.ensemble_members;
    {
      auto span = trace_->span("ect.fit");
      ect_ = std::make_unique<rca::ect::EnsembleConsistencyTest>(
          ensemble_, names_, config_.ect);
    }
  }

  const rca::meta::Metagraph& metagraph() const { return mg_; }
  /// Where later spans go (set-up and timed phase are traced apart).
  void set_trace(Trace& trace) { trace_ = &trace; }
  /// Model runs executed inside model.ensemble / model.experiment_set spans.
  std::size_t runs_in_spans() const { return runs_in_spans_; }

  const model::CesmModel& bug_model(model::BugId bug) {
    if (bug == model::BugId::kNone) return *control_;
    for (const auto& [id, m] : bug_models_) {
      if (id == bug) return *m;
    }
    model::CorpusSpec spec = config_.corpus;
    spec.bug = bug;
    auto span = trace_->span("model.load");
    bug_models_.emplace_back(
        bug, std::make_unique<model::CesmModel>(spec, pool_.get()));
    RCA_CHECK_MSG(bug_models_.back().second->parse_failures() == 0,
                  "bug corpus failed to parse");
    return *bug_models_.back().second;
  }

  engine::ExperimentOutcome run_experiment(model::ExperimentId id) {
    const model::ExperimentSpec& spec = model::experiment(id);
    const model::CesmModel& exp_model = bug_model(spec.bug);
    std::vector<NodeId> planted;
    {
      auto span = trace_->span("eval.ground_truth");
      planted = experiment_bug_nodes(spec);
    }
    engine::ExperimentOutcome out = run_core(
        exp_model, model::experiment_run_config(spec, config_.base_run),
        std::move(planted), /*runtime_sampling=*/false);
    out.spec = &spec;
    return out;
  }

  engine::ExperimentOutcome run_scenario(const model::ScenarioSpec& s) {
    const model::CesmModel& exp_model = bug_model(s.bug);
    std::vector<NodeId> planted;
    {
      auto span = trace_->span("eval.ground_truth");
      planted = model::scenario_planted_nodes(s, mg_,
                                              control_->compiled_modules());
    }
    return run_core(exp_model, model::scenario_run_config(s, config_.base_run),
                    std::move(planted), /*runtime_sampling=*/true);
  }

 private:
  std::vector<NodeId> experiment_bug_nodes(const model::ExperimentSpec& spec) {
    if (spec.id == model::ExperimentId::kRandMt) {
      return model::prng_influenced_nodes(mg_);
    }
    std::vector<rca::interp::WatchKey> keys = spec.bug_sites;
    if (spec.id == model::ExperimentId::kAvx2) {
      keys = model::kgen_flagged_variables(*control_, mg_);
    }
    std::vector<NodeId> nodes;
    for (const rca::interp::WatchKey& key : keys) {
      const NodeId v = mg_.find(key.module, key.subprogram, key.name);
      if (v != rca::graph::kInvalidNode) nodes.push_back(v);
    }
    return nodes;
  }

  engine::ExperimentOutcome run_core(const model::CesmModel& exp_model,
                                     const model::RunConfig& exp_config,
                                     std::vector<NodeId> planted,
                                     bool runtime_sampling) {
    engine::ExperimentOutcome outcome;
    {
      std::vector<std::vector<double>> verdict_runs;
      {
        auto span = trace_->span("model.experiment_set");
        verdict_runs =
            model::experiment_set(exp_model, exp_config, 3, 5000, names_);
      }
      runs_in_spans_ += 3;
      auto span = trace_->span("ect.evaluate");
      outcome.verdict = ect_->evaluate(verdict_runs);
    }

    std::vector<std::vector<double>> exp_runs;
    {
      auto span = trace_->span("model.experiment_set");
      exp_runs = model::experiment_set(exp_model, exp_config,
                                       config_.experimental_runs, 6000, names_);
    }
    runs_in_spans_ += config_.experimental_runs;
    rca::stats::Matrix exp_matrix(exp_runs.size(), names_.size());
    for (std::size_t i = 0; i < exp_runs.size(); ++i) {
      for (std::size_t j = 0; j < names_.size(); ++j) {
        exp_matrix.at(i, j) = exp_runs[i][j];
      }
    }
    {
      auto span = trace_->span("stats.lasso");
      outcome.lasso_selected = rca::stats::lasso_selection(
          ensemble_, exp_matrix, names_, config_.lasso_target);
    }
    {
      auto span = trace_->span("stats.median_rank");
      outcome.median_ranked =
          rca::stats::median_distance_ranking(ensemble_, exp_matrix, names_);
    }

    const bool dominant =
        outcome.median_ranked.size() >= 2 &&
        outcome.median_ranked[0].iqr_disjoint &&
        outcome.median_ranked[0].median_distance >
            1000.0 *
                std::max(outcome.median_ranked[1].median_distance, 1e-300);
    if (dominant) {
      outcome.criteria_outputs = {outcome.median_ranked[0].name};
    } else {
      outcome.criteria_outputs = outcome.lasso_selected;
    }
    if (outcome.criteria_outputs.empty()) {
      for (std::size_t k = 0;
           k < config_.lasso_target && k < outcome.median_ranked.size(); ++k) {
        outcome.criteria_outputs.push_back(outcome.median_ranked[k].name);
      }
    }

    {
      auto span = trace_->span("slice.backward");
      for (const std::string& label : outcome.criteria_outputs) {
        for (const std::string& internal :
             rca::slice::internal_names_for_output(mg_, label)) {
          if (std::find(outcome.internal_names.begin(),
                        outcome.internal_names.end(),
                        internal) == outcome.internal_names.end()) {
            outcome.internal_names.push_back(internal);
          }
        }
      }
      RCA_CHECK_MSG(!outcome.internal_names.empty(),
                    "no internal names resolved for selected outputs");
      rca::slice::SliceOptions slice_opts;
      if (config_.restrict_to_cam) {
        slice_opts.module_filter = [](const std::string& m) {
          return model::is_cam_module(m);
        };
      }
      slice_opts.drop_components_smaller_than = config_.drop_small_components;
      slice_opts.pool = pool_.get();
      outcome.slice =
          rca::slice::backward_slice(mg_, outcome.internal_names, slice_opts);
    }

    outcome.bug_nodes = std::move(planted);
    std::unique_ptr<engine::Sampler> sampler;
    if (runtime_sampling) {
      model::RunConfig control_config = config_.base_run;
      control_config.member_seed = 31;
      model::RunConfig experiment_config = exp_config;
      experiment_config.member_seed = 31;
      sampler = std::make_unique<engine::RuntimeSampler>(
          mg_, *control_, exp_model, control_config, experiment_config);
    } else {
      sampler =
          std::make_unique<engine::SimulatedSampler>(mg_, outcome.bug_nodes);
    }
    auto span = trace_->span("engine.refine");
    TimedSampler timed(*sampler, *trace_, span.id());
    engine::RefinementEngine refinement(mg_, timed, config_.refinement);
    outcome.refinement = refinement.run(outcome.slice.nodes,
                                        outcome.bug_nodes,
                                        outcome.slice.targets);
    return outcome;
  }

  engine::PipelineConfig config_;
  Trace* trace_;
  std::unique_ptr<rca::ThreadPool> pool_;
  std::unique_ptr<model::CesmModel> control_;
  rca::interp::CoverageRecorder coverage_;
  rca::cov::CoverageFilter filter_;
  rca::meta::Metagraph mg_;
  std::vector<std::string> names_;
  rca::stats::Matrix ensemble_;
  std::unique_ptr<rca::ect::EnsembleConsistencyTest> ect_;
  std::vector<std::pair<model::BugId, std::unique_ptr<model::CesmModel>>>
      bug_models_;
  std::size_t runs_in_spans_ = 0;
};

// -- shared reporting --------------------------------------------------------

struct TimedPhase {
  std::vector<double> latencies_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t rounds = 0;
};

/// Runs whole rounds until `seconds` have passed (at least one round).
template <typename Round>
TimedPhase run_rounds(Round&& round, double seconds) {
  TimedPhase phase;
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = process_cpu_seconds();
  do {
    round(phase);
    ++phase.rounds;
  } while (seconds_since(t0) < seconds);
  phase.wall_s = seconds_since(t0);
  phase.cpu_s = process_cpu_seconds() - cpu0;
  return phase;
}

void add_end_to_end(Values& v, const Outcome& out, double setup_s,
                    const TimedPhase& phase, double rca_hits,
                    double search_space_nodes) {
  v["setup_s"] = setup_s;
  v["ops_per_s"] = static_cast<double>(phase.latencies_ms.size()) / phase.wall_s;
  v["latency_p50_ms"] = median(phase.latencies_ms);
  v["latency_p99_ms"] = percentile(phase.latencies_ms, 0.99);
  v["ok_ratio"] = ok_ratio(out);
  v["peak_rss_mb"] = peak_rss_mb();
  v["rca_hits"] = rca_hits;
  v["search_space_nodes"] = search_space_nodes;
}

/// What a traced pipeline run measured besides its spans.
struct PipelineTraceFacts {
  std::size_t rounds = 1;
  /// Model runs inside the model.ensemble / model.experiment_set spans:
  /// the set-up's plus one round's.
  std::size_t runs_in_spans = 0;
  std::vector<double> slice_sizes;
  double meta_nodes = 0.0;
  double cpu_per_wall = 0.0;       // of the untraced reference round
  double overhead_ms = 0.0;        // traced minus untraced round wall
};

/// Per-layer values of a traced pipeline run: span times and obs counts per
/// round of the timed phase, plus the set-up's spans once.
void add_pipeline_layers(Values& v, const Trace& setup, const Trace& phase,
                         const PipelineTraceFacts& facts) {
  const double rounds = static_cast<double>(facts.rounds);
  std::map<std::string, double> ms = setup.total_ms();
  for (const auto& [name, total] : phase.total_ms()) ms[name] += total / rounds;
  std::map<std::string, double> self = setup.self_ms();
  for (const auto& [name, total] : phase.self_ms()) self[name] += total / rounds;
  auto at = [](const std::map<std::string, double>& m, const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  for (const char* name :
       {"model.load", "model.ensemble", "model.experiment_set",
        "model.coverage_run", "engine.sampler", "engine.refine", "ect.fit",
        "ect.evaluate", "stats.lasso", "stats.median_rank", "meta.build",
        "slice.backward", "score.rank"}) {
    v[std::string(name) + "_ms"] = at(ms, name);
  }
  v["model.run_ms"] =
      facts.runs_in_spans == 0
          ? 0.0
          : (at(ms, "model.ensemble") + at(ms, "model.experiment_set")) /
                static_cast<double>(facts.runs_in_spans);
  v["engine.refine_self_ms"] = at(self, "engine.refine");
  for (const char* counter :
       {"model.runs", "model.timesteps", "refinement.iterations",
        "stats.lasso.iterations", "graph.betweenness.sweeps",
        "graph.gn.edges_removed", "service.session.parses"}) {
    v[counter] = obs_counter(counter) / rounds;
  }
  v["meta.nodes"] = facts.meta_nodes;
  v["slice.nodes"] =
      facts.slice_sizes.empty()
          ? 0.0
          : std::accumulate(facts.slice_sizes.begin(), facts.slice_sizes.end(),
                            0.0) /
                static_cast<double>(facts.slice_sizes.size());
  v["run.cpu_per_wall"] = facts.cpu_per_wall;
  v["trace.overhead_ms"] = facts.overhead_ms;
}

void print_tables(const char* workload, const Trace& setup, double setup_wall_ms,
                  const Trace& phase, double phase_wall_ms, Values& v) {
  Values ignored;
  std::fprintf(stderr, "%s traced set-up:\n", workload);
  account_trace(setup, setup_wall_ms, ignored);
  std::fprintf(stderr, "%s traced timed phase:\n", workload);
  account_trace(phase, phase_wall_ms, v);
}

}  // namespace

// -- paper-analyze -----------------------------------------------------------

Outcome run_paper_analyze(const Options& opts) {
  Outcome out;
  const engine::PipelineConfig cfg = analyze_config();
  const std::vector<model::ExperimentId> ids = paper_experiments(opts.smoke);
  std::mt19937_64 rng(opts.seed);

  // Nothing is shared between analyses, so set-up is a warm-up Pipeline
  // construction (allocator, page cache, code) before timing.
  std::vector<double> setups;
  Trace setup_trace(opts.trace);
  const Clock::time_point setup_t0 = Clock::now();
  for (std::size_t i = 0; i < (opts.smoke || opts.trace ? 1 : kSetupRepeats);
       ++i) {
    const Clock::time_point t0 = Clock::now();
    auto span = setup_trace.span("op.setup");
    engine::Pipeline warm(cfg);
    setups.push_back(seconds_since(t0));
  }
  const double setup_wall_ms = ms_between(setup_t0, Clock::now());

  // Verdicts and retention do not depend on the workload seed; the final
  // search-space sizes must repeat exactly from round to round.
  std::vector<std::size_t> final_sizes(ids.size(), SIZE_MAX);
  std::size_t hits = 0;
  auto check = [&](std::size_t k, const engine::ExperimentOutcome& o) {
    bool ok = true;
    const std::string name = model::experiment(ids[k]).name;
    if (o.verdict.pass) {
      out.fail_check(name + ": UF-ECT verdict is PASS, expected FAIL");
      ok = false;
    }
    if (!retained(o)) {
      out.fail_check(name + ": ground-truth bug not retained");
      ok = false;
    }
    const std::size_t size = o.refinement.final_nodes.size();
    if (final_sizes[k] == SIZE_MAX) {
      final_sizes[k] = size;
      if (ok) ++hits;
    } else if (final_sizes[k] != size) {
      out.fail_check(name + ": final search space changed between rounds");
      ok = false;
    }
    out.tally(ok);
  };

  auto untraced_round = [&](TimedPhase& phase) {
    for (std::size_t k : round_order(ids.size(), rng)) {
      const Clock::time_point t0 = Clock::now();
      engine::Pipeline pipeline(cfg);
      const engine::ExperimentOutcome o = pipeline.run_experiment(ids[k]);
      phase.latencies_ms.push_back(ms_between(t0, Clock::now()));
      std::fprintf(stderr, "  %-12s %9.1f ms\n", model::experiment(ids[k]).name,
                   phase.latencies_ms.back());
      check(k, o);
    }
  };

  Values v;
  if (!opts.trace) {
    const TimedPhase phase = run_rounds(untraced_round, opts.seconds);
    double space = 0.0;
    for (std::size_t s : final_sizes) space += static_cast<double>(s);
    add_end_to_end(v, out, median(setups), phase, static_cast<double>(hits),
                   space);
    std::fprintf(stderr, "paper-analyze: %zu rounds, %zu analyses in %.2f s\n",
                 phase.rounds, phase.latencies_ms.size(), phase.wall_s);
    out.emit(v, /*per_layer=*/false);
    return out;
  }

  // Traced run: one untraced round as the overhead reference, then traced
  // rounds through TracedPipeline with the obs counters on.
  const TimedPhase reference = run_rounds(untraced_round, 0.0);
  rca::obs::global().reset();
  rca::obs::global().set_enabled(true);
  Trace trace(true);
  PipelineTraceFacts facts;
  auto traced_round = [&](TimedPhase& phase) {
    for (std::size_t k : round_order(ids.size(), rng)) {
      const Clock::time_point t0 = Clock::now();
      auto op = trace.span("op.analyze");
      TracedPipeline pipeline(cfg, trace);
      const engine::ExperimentOutcome o = pipeline.run_experiment(ids[k]);
      op.end();
      phase.latencies_ms.push_back(ms_between(t0, Clock::now()));
      facts.runs_in_spans += pipeline.runs_in_spans();
      facts.slice_sizes.push_back(static_cast<double>(o.slice.nodes.size()));
      facts.meta_nodes = static_cast<double>(pipeline.metagraph().node_count());
      check(k, o);
    }
  };
  const TimedPhase traced = run_rounds(traced_round, opts.seconds);
  rca::obs::global().set_enabled(false);

  facts.rounds = traced.rounds;
  facts.runs_in_spans /= traced.rounds;
  facts.cpu_per_wall = reference.cpu_s / reference.wall_s;
  facts.overhead_ms = traced.wall_s * 1000.0 / static_cast<double>(traced.rounds) -
                      reference.wall_s * 1000.0;
  add_pipeline_layers(v, setup_trace, trace, facts);
  print_tables("paper-analyze", setup_trace, setup_wall_ms, trace,
               traced.wall_s * 1000.0, v);
  trace.write_json(opts.work_dir + "/trace_paper-analyze.json");
  out.emit(v, /*per_layer=*/true);
  return out;
}

// -- scenario-runtime --------------------------------------------------------

Outcome run_scenario_runtime(const Options& opts) {
  Outcome out;
  const engine::PipelineConfig cfg = score_config(opts);
  const std::vector<const model::ScenarioSpec*> scen =
      library_scenarios(opts.smoke);
  std::mt19937_64 rng(opts.seed);

  // Set-up: the shared Pipeline (ensemble, ECT, metagraph) and every
  // scenario's bug corpus, built before timing. Repeated; the last is kept.
  auto build_shared = [&] {
    auto p = std::make_unique<engine::Pipeline>(cfg);
    for (const model::ScenarioSpec* s : scen) p->bug_model(s->bug);
    return p;
  };
  std::unique_ptr<engine::Pipeline> pipeline;
  std::vector<double> setups;
  for (std::size_t i = 0; i < (opts.smoke ? 1 : kSetupRepeats); ++i) {
    pipeline.reset();
    const Clock::time_point t0 = Clock::now();
    pipeline = build_shared();
    setups.push_back(seconds_since(t0));
  }

  // The scoreboard is checked byte for byte against the document kept with
  // the benchmark (made by `rca-tool score --runtime --jobs 4` at the pinned
  // corpus seed). Its rows are in library order, so the workload seed, which
  // only reorders the scenarios, cannot change it; every round must also
  // reproduce the first round exactly.
  const std::string expected_path =
      opts.expected_dir + (opts.smoke ? "/scoreboard_smoke.json"
                                      : "/scoreboard.json");
  const std::string expected = read_file(expected_path);
  if (expected.empty()) {
    out.fail_check("missing expected scoreboard " + expected_path);
  }
  std::string first_doc;
  double hits = 0.0;
  double space = 0.0;
  auto finish_round = [&](std::vector<rca::campaign::ScenarioScore> scores) {
    const rca::campaign::Scoreboard board = make_board(std::move(scores));
    const std::string doc = rca::campaign::scoreboard_json(board);
    bool ok = true;
    if (doc != expected) {
      out.fail_check("scoreboard differs from " + expected_path + ":\n" + doc);
      ok = false;
    }
    if (first_doc.empty()) {
      first_doc = doc;
      hits = static_cast<double>(board.hits);
      for (const auto& s : board.scores) {
        space += static_cast<double>(s.final_nodes);
      }
    } else if (doc != first_doc) {
      out.fail_check("scoreboard changed between rounds");
      ok = false;
    }
    for (std::size_t i = 0; i < board.scores.size(); ++i) out.tally(ok);
  };

  Trace no_trace(false);
  auto untraced_round = [&](TimedPhase& phase) {
    std::vector<rca::campaign::ScenarioScore> scores(scen.size());
    for (std::size_t k : round_order(scen.size(), rng)) {
      const Clock::time_point t0 = Clock::now();
      const engine::ExperimentOutcome o =
          pipeline->run_scenario(*scen[k], /*runtime_sampling=*/true);
      scores[k] = score_outcome(*scen[k], o, pipeline->metagraph().graph(),
                                no_trace);
      phase.latencies_ms.push_back(ms_between(t0, Clock::now()));
      std::fprintf(stderr, "  %-16s %9.1f ms\n", scen[k]->name.c_str(),
                   phase.latencies_ms.back());
    }
    finish_round(std::move(scores));
  };

  Values v;
  if (!opts.trace) {
    const TimedPhase phase = run_rounds(untraced_round, opts.seconds);
    add_end_to_end(v, out, median(setups), phase, hits, space);
    std::fprintf(stderr, "scenario-runtime: %zu rounds, %zu scenarios in %.2f s\n",
                 phase.rounds, phase.latencies_ms.size(), phase.wall_s);
    out.emit(v, /*per_layer=*/false);
    return out;
  }

  const TimedPhase reference = run_rounds(untraced_round, 0.0);
  pipeline.reset();
  rca::obs::global().reset();
  rca::obs::global().set_enabled(true);
  Trace setup_trace(true);
  Trace trace(true);
  PipelineTraceFacts facts;
  const Clock::time_point setup_t0 = Clock::now();
  std::unique_ptr<TracedPipeline> traced_pipeline;
  {
    auto span = setup_trace.span("op.setup");
    traced_pipeline = std::make_unique<TracedPipeline>(cfg, setup_trace);
    for (const model::ScenarioSpec* s : scen) traced_pipeline->bug_model(s->bug);
  }
  const double setup_wall_ms = ms_between(setup_t0, Clock::now());
  facts.runs_in_spans = traced_pipeline->runs_in_spans();
  facts.meta_nodes =
      static_cast<double>(traced_pipeline->metagraph().node_count());
  // Counts are per round of the timed phase; the set-up's runs are not in
  // them.
  rca::obs::global().reset();
  traced_pipeline->set_trace(trace);
  const std::size_t setup_runs = traced_pipeline->runs_in_spans();
  auto traced_round = [&](TimedPhase& phase) {
    std::vector<rca::campaign::ScenarioScore> scores(scen.size());
    for (std::size_t k : round_order(scen.size(), rng)) {
      const Clock::time_point t0 = Clock::now();
      auto op = trace.span("op.scenario");
      const engine::ExperimentOutcome o = traced_pipeline->run_scenario(*scen[k]);
      scores[k] = score_outcome(*scen[k], o,
                                traced_pipeline->metagraph().graph(), trace);
      op.end();
      phase.latencies_ms.push_back(ms_between(t0, Clock::now()));
      facts.slice_sizes.push_back(static_cast<double>(o.slice.nodes.size()));
    }
    finish_round(std::move(scores));
  };
  const TimedPhase traced = run_rounds(traced_round, opts.seconds);
  rca::obs::global().set_enabled(false);

  facts.rounds = traced.rounds;
  facts.runs_in_spans =
      setup_runs + (traced_pipeline->runs_in_spans() - setup_runs) / traced.rounds;
  facts.cpu_per_wall = reference.cpu_s / reference.wall_s;
  facts.overhead_ms = traced.wall_s * 1000.0 / static_cast<double>(traced.rounds) -
                      reference.wall_s * 1000.0;
  add_pipeline_layers(v, setup_trace, trace, facts);
  print_tables("scenario-runtime", setup_trace, setup_wall_ms, trace,
               traced.wall_s * 1000.0, v);
  trace.write_json(opts.work_dir + "/trace_scenario-runtime.json");
  out.emit(v, /*per_layer=*/true);
  return out;
}

}  // namespace perfbench
