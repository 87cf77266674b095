#include "model/model.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <optional>

#include "lang/parser.hpp"
#include "lang/symbols.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace rca::model {

CesmModel::CesmModel(const CorpusSpec& spec, rca::ThreadPool* pool)
    : spec_(spec), corpus_(generate_corpus(spec)), pool_(pool) {
  // Parse only the compiled (build-configuration) files — the KGen-style
  // 2400 -> 820 reduction happens before parsing in the paper too.
  std::unordered_map<std::string, bool> compiled;
  for (const auto& name : corpus_.compiled_modules) compiled[name] = true;

  // Each file lexes/parses independently; slots keep file order so the
  // assembly below is deterministic regardless of scheduling.
  std::vector<std::optional<lang::SourceFile>> slots(corpus_.files.size());
  std::vector<char> failed(corpus_.files.size(), 0);
  auto parse_one = [this, &slots, &failed](std::size_t i) {
    const GeneratedFile& file = corpus_.files[i];
    try {
      lang::Parser parser(file.path, file.text);
      slots[i] = parser.parse_file();
    } catch (const ParseError&) {
      failed[i] = 1;
    }
  };
  if (pool != nullptr && corpus_.files.size() > 1) {
    pool->parallel_for(corpus_.files.size(), parse_one);
  } else {
    for (std::size_t i = 0; i < corpus_.files.size(); ++i) parse_one(i);
  }

  parsed_files_.reserve(corpus_.files.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (failed[i]) {
      ++parse_failures_;
      continue;
    }
    if (!slots[i]) continue;
    bool any_compiled = false;
    for (const auto& m : slots[i]->modules) {
      if (compiled.count(m.name)) any_compiled = true;
    }
    if (!any_compiled) continue;
    parsed_files_.push_back(std::move(*slots[i]));
  }
  for (const auto& f : parsed_files_) {
    for (const auto& m : f.modules) {
      if (compiled.count(m.name)) module_ptrs_.push_back(&m);
    }
  }
  symbols_ = std::make_shared<const lang::ProgramSymbols>(module_ptrs_);
}

namespace {

/// Applies the member-specific initial-condition perturbation: every
/// prognostic field element is scaled by (1 + eps) with |eps| <=
/// perturbation, mirroring CESM's O(1e-14) temperature perturbations.
void perturb_initial_conditions(interp::Interpreter& interp,
                                std::uint64_t member_seed,
                                double perturbation) {
  SplitMix64 rng(member_seed * 0x2545f4914f6cdd1dull + 0x9e3779b97f4a7c15ull);
  auto perturb_array = [&rng, perturbation](interp::Value& v) {
    for (double& x : v.array) {
      x *= 1.0 + perturbation * (2.0 * rng.uniform() - 1.0);
    }
  };
  auto state = interp.module_var("phys_state_mod", "state");
  for (const char* field : {"t", "u", "v", "q", "ps"}) {
    perturb_array(*state->derived->components.at(field));
  }
  perturb_array(*interp.module_var("lnd_soil", "soilw"));
  perturb_array(*interp.module_var("ocn_pop", "sst"));
}

std::unique_ptr<interp::Interpreter> make_interpreter(
    const std::vector<const lang::Module*>& modules,
    std::shared_ptr<const lang::ProgramSymbols> symbols,
    const RunConfig& config) {
  auto interp =
      std::make_unique<interp::Interpreter>(modules, std::move(symbols));
  interp->set_prng(make_prng(config.prng_kind, config.prng_seed));
  if (config.fma_all) interp->set_fma_all(true);
  for (const auto& m : config.fma_disabled_modules) {
    interp->set_fma(m, false);
  }
  if (config.reassoc_all) interp->set_reassoc_all(true);
  for (const auto& w : config.watches) interp->add_watch(w);
  return interp;
}

interp::CoverageRecorder run_driver_coverage(
    const std::vector<const lang::Module*>& modules,
    std::shared_ptr<const lang::ProgramSymbols> symbols, int timesteps) {
  const bool has_driver =
      std::any_of(modules.begin(), modules.end(), [](const lang::Module* m) {
        return m->name == "cam_driver" && m->find_subprogram("cam_init") &&
               m->find_subprogram("cam_step");
      });
  if (!has_driver) {
    throw Error(
        "coverage needs module 'cam_driver' with cam_init and cam_step");
  }
  auto interp = make_interpreter(modules, std::move(symbols), RunConfig{});
  interp->call("cam_driver", "cam_init");
  for (int step = 0; step < timesteps; ++step) {
    interp->call("cam_driver", "cam_step");
  }
  return interp->coverage();
}

}  // namespace

RunResult CesmModel::run(const RunConfig& config) const {
  obs::count("model.runs");
  obs::count("model.timesteps", static_cast<std::uint64_t>(config.timesteps));
  obs::count("model.watches", config.watches.size());
  auto interp = make_interpreter(module_ptrs_, symbols_, config);
  interp->call("cam_driver", "cam_init");
  perturb_initial_conditions(*interp, config.member_seed, config.perturbation);
  for (int step = 0; step < config.timesteps; ++step) {
    interp->call("cam_driver", "cam_step");
  }

  // Last outfld value per label = the final-step history field.
  std::map<std::string, double> last;
  for (const auto& [label, mean] : interp->outputs()) last[label] = mean;

  RunResult result;
  result.output_names.reserve(last.size());
  result.output_means.reserve(last.size());
  for (const auto& [label, mean] : last) {
    result.output_names.push_back(label);
    result.output_means.push_back(mean);
  }
  result.watch_stats = interp->watch_stats();
  return result;
}

interp::CoverageRecorder CesmModel::coverage_run(int timesteps) const {
  return run_driver_coverage(module_ptrs_, symbols_, timesteps);
}

interp::CoverageRecorder driver_coverage(
    const std::vector<const lang::Module*>& modules, int timesteps) {
  return run_driver_coverage(
      modules, std::make_shared<const lang::ProgramSymbols>(modules),
      timesteps);
}

std::vector<RunResult> CesmModel::run_members(const RunConfig& base,
                                              std::size_t count,
                                              std::uint64_t first_seed) const {
  auto member = [this, &base, first_seed](std::size_t i) {
    RunConfig config = base;
    config.member_seed = first_seed + i;
    return run(config);
  };
  std::vector<RunResult> results;
  if (pool_ == nullptr) {
    results.reserve(count);
    for (std::size_t i = 0; i < count; ++i) results.push_back(member(i));
    return results;
  }
  // Every member runs to completion or failure; the first failure in index
  // order is the one a serial loop would have stopped at.
  std::vector<std::exception_ptr> errors(count);
  results = pool_->parallel_map<RunResult>(
      count, [&member, &errors](std::size_t i) {
        try {
          return member(i);
        } catch (...) {
          errors[i] = std::current_exception();
          return RunResult{};
        }
      });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

stats::Matrix ensemble_matrix(const CesmModel& model, const RunConfig& base,
                              std::size_t members,
                              std::vector<std::string>* names,
                              std::uint64_t first_seed) {
  RCA_CHECK_MSG(members >= 2, "ensemble needs at least two members");
  obs::Span span("model.ensemble");
  span.attr("members", members);
  const std::vector<RunResult> runs =
      model.run_members(base, members, first_seed);
  if (names) *names = runs[0].output_names;
  stats::Matrix data(members, runs[0].output_means.size());
  for (std::size_t m = 0; m < members; ++m) {
    RCA_CHECK_MSG(runs[m].output_means.size() == data.cols(),
                  "inconsistent output width across members");
    for (std::size_t j = 0; j < data.cols(); ++j) {
      data.at(m, j) = runs[m].output_means[j];
    }
  }
  return data;
}

std::vector<std::vector<double>> experiment_set(
    const CesmModel& model, const RunConfig& base, std::size_t runs,
    std::uint64_t first_seed, const std::vector<std::string>& names) {
  std::vector<RunResult> results = model.run_members(base, runs, first_seed);
  std::vector<std::vector<double>> out;
  out.reserve(runs);
  for (RunResult& result : results) {
    RCA_CHECK_MSG(result.output_names == names,
                  "experimental run output labels differ from ensemble");
    out.push_back(std::move(result.output_means));
  }
  return out;
}

}  // namespace rca::model
