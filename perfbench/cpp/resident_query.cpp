// resident-query: the resident service under a closed-loop client mix.
//
// Set-up generates the model::cesm_scale_spec() corpus (about 2400 modules)
// into the checkout and cold-builds it into a resident session through
// POST /v1/graph/build on a fresh SessionStore + Router; that cold build is
// setup_s (median of three). An in-process HttpServer then serves the last
// Router (2-worker request pool, 2-thread build pool) on loopback, and two
// keep-alive clients each send their next request only after the previous
// reply arrived, like CLI or editor callers. Reads: warm /v1/graph/build,
// /v1/slice from the GOFFGRATCH-flagged outputs, /v1/rank (eigenvector, and
// pivot-sampled betweenness), /v1/communities (louvain) and /v1/lint. Client
// 0 also sends /v1/session/patch writes that alternate one module between
// two versions. Exact Girvan-Newman on the whole session is left out (seconds
// per call); the pipeline workloads run it on slice-sized subgraphs.
//
// Graph, slice, meta, analysis and service do the work here and the
// interpreter none. The daemon keeps its metrics registry on (as `rca-tool
// serve` does), so the span registry's growth shows in peak_rss_mb.
//
// Every response body must equal the one a single-client serial pass over
// the same distinct requests returned during set-up.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "fleet/http_client.hpp"
#include "harness.hpp"
#include "meta/builder.hpp"
#include "meta/transaction.hpp"
#include "model/corpus.hpp"
#include "model/experiments.hpp"
#include "obs/obs.hpp"
#include "service/front_end.hpp"
#include "service/http_server.hpp"
#include "service/router.hpp"
#include "service/session_store.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

namespace fs = std::filesystem;

namespace perfbench {
namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kRequestThreads = 2;
constexpr std::size_t kBuildThreads = 2;
constexpr std::size_t kSetupRepeats = 3;
/// Pivots per sampled-betweenness rank request.
constexpr long long kBetweennessSamples = 16;

/// Output labels UF-ECT flags for GOFFGRATCH at the pinned corpus seed; the
/// slice requests use them as criteria.
const char* const kSliceOutputs[] = {"cldlow", "cloud", "ccn3", "fsds",
                                     "cldmed"};

struct Request {
  std::string route;  // metric name part: build, slice, rank_eigen, ...
  std::string path;
  std::string body;
};

std::string body_of(const std::function<void(rca::JsonWriter&)>& fill) {
  rca::JsonWriter w;
  w.begin_object();
  fill(w);
  w.end_object();
  return w.str();
}

std::string patch_body(const std::string& session, const std::string& path,
                       const std::string& text) {
  return body_of([&](rca::JsonWriter& w) {
    w.key("session");
    w.string_value(session);
    w.key("modules");
    w.begin_array();
    w.begin_object();
    w.key("path");
    w.string_value(path);
    w.key("src");
    w.string_value(text);
    w.end_object();
    w.end_array();
  });
}

std::string session_of(const rca::service::Response& resp) {
  if (resp.status != 200) {
    throw rca::Error("request failed with status " +
                     std::to_string(resp.status) + ": " + resp.body);
  }
  return rca::parse_json(resp.body).get_string("session");
}

/// Writes the generated corpus under `dir` (replacing what was there);
/// returns the files in generation order.
rca::model::GeneratedCorpus write_corpus(const Options& opts,
                                         const std::string& dir) {
  rca::model::CorpusSpec spec =
      opts.smoke ? rca::model::CorpusSpec{} : rca::model::cesm_scale_spec();
  spec.seed = kCorpusSeed;
  rca::model::GeneratedCorpus corpus = rca::model::generate_corpus(spec);
  fs::remove_all(dir);
  for (const auto& file : corpus.files) {
    const fs::path path = fs::path(dir) / file.path;
    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    out << file.text;
  }
  return corpus;
}

/// Slices whose listing holds a GOFFGRATCH bug site, and the summed slice
/// sizes, from the reference slice responses.
void score_slices(const std::vector<Request>& requests,
                  const std::vector<std::string>& reference, double& hits,
                  double& nodes) {
  const auto& sites =
      rca::model::experiment(rca::model::ExperimentId::kGoffGratch).bug_sites;
  hits = 0.0;
  nodes = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].route != "slice") continue;
    const rca::JsonValue doc = rca::parse_json(reference[i]);
    nodes += static_cast<double>(doc.get_int("nodes", 0));
    const rca::JsonValue* listing = doc.get("shown");
    if (listing == nullptr) throw rca::Error("slice response has no listing");
    bool hit = false;
    for (const rca::JsonValue& shown : listing->items()) {
      const std::string name = shown.get_string("name");
      for (const auto& site : sites) {
        if (shown.get_string("module") == site.module &&
            name.rfind(site.name + "__", 0) == 0) {
          hit = true;
        }
      }
    }
    if (hit) hits += 1.0;
  }
}

/// The HTTP server thread, stopped and joined on every exit path.
class ServerThread {
 public:
  explicit ServerThread(rca::service::Router* router)
      : server_(router, rca::service::HttpServerOptions{}) {
    server_.start();
    thread_ = std::thread([this] { server_.serve_forever(); });
  }
  ~ServerThread() {
    server_.request_shutdown();
    thread_.join();
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  std::uint16_t port() const { return server_.port(); }

 private:
  rca::service::HttpServer server_;
  std::thread thread_;
};

struct Sample {
  std::size_t request = 0;
  double ms = 0.0;
  int status = 0;
  bool ok = false;
};

/// One closed-loop client with its own seeded stream. Each request picks an
/// endpoint uniformly, then one of that endpoint's requests uniformly: among
/// the read endpoints on every client, and among the read endpoints plus
/// /v1/session/patch on client 0, whose patches alternate between the two
/// versions.
std::vector<Sample> run_client(
    std::size_t client, std::uint64_t seed, std::uint16_t port,
    const std::vector<Request>& requests,
    const std::vector<std::vector<std::size_t>>& read_endpoints,
    const std::vector<std::size_t>& patches,
    const std::vector<std::string>& reference, Clock::time_point deadline,
    Trace& trace) {
  std::mt19937_64 rng(seed * 1000003u + client);
  const std::size_t endpoints = read_endpoints.size() + (client == 0 ? 1 : 0);
  rca::fleet::HttpClientOptions copts;
  copts.max_connections = 1;
  rca::fleet::HttpClient http(port, copts);
  std::vector<Sample> samples;
  std::size_t patch_turn = 0;
  while (Clock::now() < deadline) {
    const std::size_t endpoint = rng() % endpoints;
    std::size_t pick = 0;
    if (endpoint == read_endpoints.size()) {
      pick = patches[patch_turn++ % patches.size()];
    } else {
      const std::vector<std::size_t>& candidates = read_endpoints[endpoint];
      pick = candidates[rng() % candidates.size()];
    }
    const Request& req = requests[pick];
    const std::string span_name = "service." + req.route;
    auto span = trace.span(span_name.c_str());
    const Clock::time_point t0 = Clock::now();
    const std::optional<rca::fleet::ClientResponse> resp =
        http.request("POST", req.path, req.body);
    Sample s;
    s.ms = ms_between(t0, Clock::now());
    span.end();
    s.request = pick;
    s.status = resp ? resp->status : 0;
    s.ok = resp && resp->status == 200 && resp->body == reference[pick];
    samples.push_back(s);
  }
  return samples;
}

}  // namespace

Outcome run_resident_query(const Options& opts) {
  Outcome out;
  rca::obs::global().set_enabled(true);
  // Per-process corpus directory, removed on every exit path.
  const std::string dir =
      opts.work_dir + "/rq_corpus_" + std::to_string(::getpid());
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } remove_dir{dir};
  const rca::model::GeneratedCorpus corpus = write_corpus(opts, dir);
  // The build list is the corpus's compiled-module set, as `rca-tool graph
  // --build-list` passes it.
  const std::string build_body = body_of([&](rca::JsonWriter& w) {
    w.key("src");
    w.string_value(dir);
    w.key("build_list");
    w.begin_array();
    for (const std::string& m : corpus.compiled_modules) w.string_value(m);
    w.end_array();
  });

  rca::ThreadPool build_pool(kBuildThreads);
  rca::ThreadPool request_pool(kRequestThreads);
  auto make_store = [&] {
    rca::service::SessionStoreOptions sopts;
    sopts.build_pool = &build_pool;
    return std::make_unique<rca::service::SessionStore>(sopts);
  };
  rca::service::RouterOptions ropts;
  ropts.pool = &request_pool;

  // Set-up: cold builds on fresh stores; the last one stays resident.
  std::unique_ptr<rca::service::SessionStore> store;
  std::unique_ptr<rca::service::Router> router;
  std::vector<double> setups;
  std::string session;
  for (std::size_t i = 0; i < (opts.smoke || opts.trace ? 1 : kSetupRepeats);
       ++i) {
    router.reset();
    store.reset();
    store = make_store();
    router = std::make_unique<rca::service::Router>(store.get(), ropts);
    const Clock::time_point t0 = Clock::now();
    session = session_of(router->handle({"POST", "/v1/graph/build", build_body}));
    setups.push_back(seconds_since(t0));
  }

  Values v;
  if (opts.trace) {
    // The cold build's layers, timed by calling the same public functions
    // the session store calls: the front end (collect + parse) and the
    // fragment transaction that builds the metagraph.
    Trace setup_trace(true);
    {
      auto span = setup_trace.span("model.load");
      const auto sources = rca::service::collect_fortran_sources(dir);
      std::vector<std::pair<std::string, std::string>> errors;
      std::vector<rca::lang::SourceFile> parsed =
          rca::service::parse_sources(sources, &build_pool, &errors);
      span.end();
      auto build = setup_trace.span("meta.build");
      std::vector<std::shared_ptr<const rca::lang::SourceFile>> files;
      std::vector<rca::meta::TxnInput> inputs;
      for (auto& f : parsed) {
        files.push_back(
            std::make_shared<const rca::lang::SourceFile>(std::move(f)));
        for (const auto& m : files.back()->modules) {
          if (std::find(corpus.compiled_modules.begin(),
                        corpus.compiled_modules.end(),
                        m.name) == corpus.compiled_modules.end()) {
            continue;
          }
          inputs.push_back(
              rca::meta::TxnInput{files.back()->path, &m, true, files.back()});
        }
      }
      rca::meta::BuilderOptions bopts;
      bopts.pool = &build_pool;
      const rca::meta::TxnResult txn =
          rca::meta::run_transaction(inputs, nullptr, bopts);
      v["meta.nodes"] = static_cast<double>(txn.mg->node_count());
    }
    const std::map<std::string, double> ms = setup_trace.total_ms();
    v["model.load_ms"] = ms.at("model.load");
    v["meta.build_ms"] = ms.at("meta.build");
  }
  v["service.cold_build_ms"] = median(setups) * 1000.0;

  // The patched module: a seeded pick among the corpus files; version B
  // appends a comment line. Priming commits version B once (a real
  // incremental patch) and returns to A, so both versions are resident.
  std::mt19937_64 rng(opts.seed);
  const auto& patched = corpus.files[rng() % corpus.files.size()];
  const std::string patched_path = (fs::path(dir) / patched.path).string();
  const std::string version_a = patched.text;
  const std::string version_b = patched.text + "\n! perfbench edit\n";
  const std::string session_b = session_of(router->handle(
      {"POST", "/v1/session/patch", patch_body(session, patched_path, version_b)}));
  if (session_of(router->handle({"POST", "/v1/session/patch",
                                 patch_body(session_b, patched_path,
                                            version_a)})) != session) {
    out.fail_check("patching back to version A did not return the base session");
  }

  // The request mix. No traffic data exists for the service, so the mix is
  // assumed: every endpoint is equally likely, and so is each request body
  // of an endpoint (see run_client). The traced run reports each route's
  // latencies separately.
  std::vector<Request> requests;
  requests.push_back({"build", "/v1/graph/build", build_body});
  for (const char* label : kSliceOutputs) {
    requests.push_back({"slice", "/v1/slice", body_of([&](rca::JsonWriter& w) {
                          w.key("session");
                          w.string_value(session);
                          w.key("outputs");
                          w.begin_array();
                          w.string_value(label);
                          w.end_array();
                          w.key("cam_only");
                          w.boolean(true);
                          w.key("drop_small");
                          w.integer(4);
                          w.key("limit");
                          w.integer(100000);
                        })});
  }
  requests.push_back({"rank_eigen", "/v1/rank", body_of([&](rca::JsonWriter& w) {
                        w.key("session");
                        w.string_value(session);
                        w.key("kind");
                        w.string_value("eigenvector");
                        w.key("top");
                        w.integer(15);
                      })});
  requests.push_back(
      {"rank_betweenness", "/v1/rank", body_of([&](rca::JsonWriter& w) {
         w.key("session");
         w.string_value(session);
         w.key("kind");
         w.string_value("betweenness");
         w.key("top");
         w.integer(15);
         w.key("samples");
         w.integer(kBetweennessSamples);
         w.key("seed");
         w.integer(static_cast<long long>(opts.seed % 1000003u));
       })});
  requests.push_back({"louvain", "/v1/communities", body_of([&](rca::JsonWriter& w) {
                        w.key("session");
                        w.string_value(session);
                        w.key("method");
                        w.string_value("louvain");
                        w.key("min_size");
                        w.integer(4);
                      })});
  requests.push_back({"lint", "/v1/lint", body_of([&](rca::JsonWriter& w) {
                        w.key("session");
                        w.string_value(session);
                      })});
  // Read endpoints in order of first appearance, each with its requests.
  std::vector<std::vector<std::size_t>> read_endpoints;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i == 0 || requests[i].path != requests[i - 1].path) {
      read_endpoints.emplace_back();
    }
    read_endpoints.back().push_back(i);
  }
  std::vector<std::size_t> patches;
  patches.push_back(requests.size());
  requests.push_back({"patch", "/v1/session/patch",
                      patch_body(session, patched_path, version_b)});
  patches.push_back(requests.size());
  requests.push_back({"patch", "/v1/session/patch",
                      patch_body(session_b, patched_path, version_a)});

  ServerThread server(router.get());

  // Serial single-client reference pass, outside the timed phase.
  std::vector<std::string> reference;
  {
    rca::fleet::HttpClient http(server.port(), rca::fleet::HttpClientOptions{});
    for (const Request& req : requests) {
      const auto resp = http.request("POST", req.path, req.body);
      if (!resp || resp->status != 200) {
        throw rca::Error("reference request " + req.path + " failed: " +
                         (resp ? resp->body : std::string("no response")));
      }
      reference.push_back(resp->body);
    }
  }
  double hits = 0.0;
  double slice_nodes = 0.0;
  score_slices(requests, reference, hits, slice_nodes);

  auto timed_phase = [&](double seconds, Trace& trace, double& wall_s,
                         double& cpu_s) {
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<std::vector<Sample>> per_client(kClients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        per_client[c] = run_client(c, opts.seed, server.port(), requests,
                                   read_endpoints, patches, reference, deadline,
                                   trace);
      });
    }
    for (std::thread& t : threads) t.join();
    wall_s = seconds_since(t0);
    cpu_s = process_cpu_seconds() - cpu0;
    std::vector<Sample> all;
    for (auto& samples : per_client) {
      all.insert(all.end(), samples.begin(), samples.end());
    }
    return all;
  };

  auto tally = [&](const std::vector<Sample>& samples) {
    std::vector<double> ms;
    for (const Sample& s : samples) {
      if (!s.ok) {
        out.fail_check(requests[s.request].route + " request answered " +
                       std::to_string(s.status) +
                       " or differed from the serial reference");
      }
      out.tally(s.ok);
      ms.push_back(s.ms);
    }
    return ms;
  };

  if (!opts.trace) {
    Trace no_trace(false);
    double wall_s = 0.0;
    double cpu_s = 0.0;
    const std::vector<Sample> samples =
        timed_phase(opts.seconds, no_trace, wall_s, cpu_s);
    const std::vector<double> ms = tally(samples);
    v["setup_s"] = median(setups);
    v["ops_per_s"] = static_cast<double>(samples.size()) / wall_s;
    v["latency_p50_ms"] = median(ms);
    v["latency_p99_ms"] = percentile(ms, 0.99);
    v["ok_ratio"] = ok_ratio(out);
    v["peak_rss_mb"] = peak_rss_mb();
    v["rca_hits"] = hits;
    v["search_space_nodes"] = slice_nodes;
    std::fprintf(stderr,
                 "resident-query: %zu requests in %.2f s (%zu beyond p99)\n",
                 samples.size(), wall_s, samples.size() / 100);
    out.emit(v, /*per_layer=*/false);
    return out;
  }

  // Traced run: half the time untraced (overhead reference), half traced.
  Trace no_trace(false);
  double ref_wall = 0.0;
  double ref_cpu = 0.0;
  const std::vector<Sample> ref_samples =
      timed_phase(opts.seconds / 2, no_trace, ref_wall, ref_cpu);
  const std::vector<double> ref_ms = tally(ref_samples);
  // obs counts are per request of the traced half.
  const char* const kCounters[] = {
      "model.runs",             "model.timesteps",
      "refinement.iterations",  "stats.lasso.iterations",
      "graph.betweenness.sweeps", "graph.gn.edges_removed",
      "service.session.parses"};
  Values counts_before;
  for (const char* counter : kCounters) {
    counts_before[counter] = obs_counter(counter);
  }
  Trace trace(true);
  double wall = 0.0;
  double cpu = 0.0;
  const std::vector<Sample> samples = timed_phase(opts.seconds / 2, trace, wall, cpu);
  const std::vector<double> traced_ms = tally(samples);
  for (const char* counter : kCounters) {
    v[counter] = (obs_counter(counter) - counts_before[counter]) /
                 static_cast<double>(samples.size());
  }

  std::map<std::string, std::vector<double>> by_route;
  for (const Sample& s : samples) {
    by_route[requests[s.request].route].push_back(s.ms);
    if (s.status == 429) v["service.status_429"] += 1;
    if (s.status == 504) v["service.status_504"] += 1;
  }
  for (const auto& [route, ms] : by_route) {
    v["service." + route + "_p50_ms"] = median(ms);
    v["service." + route + "_p99_ms"] = percentile(ms, 0.99);
  }
  auto mean = [](const std::vector<double>& xs) {
    double sum = 0.0;
    for (double x : xs) sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
  };
  v["trace.overhead_ms"] = mean(traced_ms) - mean(ref_ms);
  v["run.cpu_per_wall"] = ref_cpu / ref_wall;

  // HTTP hop: loopback round trip minus a direct Router::handle of the same
  // request. Measured on GET /v1/health, which both paths answer inline in
  // microseconds, so the handler's own variation does not swamp the
  // transport; medians of 200 interleaved tries.
  {
    rca::fleet::HttpClient http(server.port(), rca::fleet::HttpClientOptions{});
    std::vector<double> rtt;
    std::vector<double> direct;
    for (int k = 0; k < 200; ++k) {
      Clock::time_point t0 = Clock::now();
      (void)http.request("GET", "/v1/health", "");
      rtt.push_back(ms_between(t0, Clock::now()));
      t0 = Clock::now();
      (void)router->handle({"GET", "/v1/health", ""});
      direct.push_back(ms_between(t0, Clock::now()));
    }
    v["http.hop_ms"] = median(rtt) - median(direct);
  }
  v["obs.spans_retained"] =
      static_cast<double>(rca::obs::global().spans().size());
  v["obs.metrics_bytes"] =
      static_cast<double>(rca::obs::global().to_json().size());
  v["slice.nodes"] = slice_nodes / static_cast<double>(std::size(kSliceOutputs));

  std::fprintf(stderr, "resident-query traced phase (client time, %zu clients):\n",
               kClients);
  account_trace(trace, trace.root_ms(), v);
  trace.write_json(opts.work_dir + "/trace_resident-query.json");
  out.emit(v, /*per_layer=*/true);
  return out;
}

}  // namespace perfbench
