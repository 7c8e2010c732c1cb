// uesr_e2e: one process = one instance of one end-to-end traffic workload.
//
// The program drives the library only through its public entry points
// (graph generators and scenarios, baselines workloads, core::TrafficEngine,
// explore::SequenceCache) and times every call into a layer from outside.
// It sets the workload up `--setups` times and keeps the median set-up
// time, runs the last instance once, audits every verdict OUTSIDE the timed
// region, and prints one JSON object with this process's raw measurements.
// run.py starts one process per repetition and aggregates them.
//
//   uesr_e2e --kind=arena|lossy --seed=N --threads=T --shards=S --setups=K
//            [--trace] <every sizing flag of the kind, see Params>
//
// A missing or unknown flag is an error (exit 2).
//
// Untraced (default): the engine runs through run() with nothing attached.
// Traced (--trace): the run is a run_round() loop equivalent to run(),
// timed per round; arrivals are pulled through a forwarding ArrivalSource;
// and every SequenceCache key the engine will look up is pre-registered
// with a counting ExplorationSequence that forwards to standard_ues().
// Tracing counters are per thread and summed after the run; fill() calls
// are timed on a fixed stride of each thread's calls; resident memory is
// sampled after every round.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/workload.h"
#include "core/traffic.h"
#include "explore/degree_reduce.h"
#include "explore/sequence.h"
#include "explore/sequence_cache.h"
#include "graph/algorithms.h"
#include "graph/churn.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace uesr;
using graph::NodeId;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Resident set size now, in MB, from /proc/self/statm (0 if unreadable).
/// The file stays open: a traced run reads it after every round.
double rss_mb_now() {
  static const int fd = open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  static const double page_mb =
      static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
  char buf[128];
  const ssize_t n = pread(fd, buf, sizeof buf - 1, 0);
  if (n <= 0) return 0.0;
  buf[n] = '\0';
  unsigned long long size = 0, resident = 0;
  if (std::sscanf(buf, "%llu %llu", &size, &resident) != 2) return 0.0;
  return static_cast<double>(resident) * page_mb;
}

// ---- workload parameters ----------------------------------------------------

/// Every workload uses the engine's default 64-slot batch and one sequence
/// seed; everything else comes from the command line.
constexpr std::uint64_t kBatch = 64;
constexpr std::uint64_t kSeqSeed = 0x5eed0001;

/// Every knob of one workload instance.  There are no defaults: run.py
/// passes the values recorded in workloads.json, and parse() refuses a
/// missing or unknown flag, so workloads.json is the only source of sizes.
struct Params {
  std::string kind;  ///< "arena" (perfect links) or "lossy"
  std::uint64_t seed = 0;  ///< the workload seed: arrivals, channel losses
  unsigned threads = 0;
  unsigned shards = 0;
  bool trace = false;
  int setups = 0;
  // arena: `clusters` disjoint copies of connected_gnp(cluster_size, ...)
  NodeId cluster_size = 0;
  double cluster_p = 0.0;
  std::uint64_t cluster_seed = 0;
  NodeId clusters = 0;
  std::uint64_t sessions = 0;
  double interarrival = 0.0;  ///< Exp mean ticks (0 = burst at tick 0)
  double lifetime = 0.0;      ///< Exp mean ticks (0 = never depart)
  // lossy: all-pairs over NodeChurnScenario(connected_gnp(nodes, ...))
  NodeId nodes = 0;
  double edge_p = 0.0;
  std::uint64_t graph_seed = 0;
  double p_leave = 0.0;
  double p_join = 0.0;
  std::uint64_t churn_seed = 0;
  std::uint64_t epoch_period = 0;
  std::uint64_t epochs = 0;
  double loss = 0.0;
  std::uint32_t window = 0;
  std::uint32_t frames = 0;
  std::uint32_t retries = 0;
};

const std::set<std::string> kCommonFlags = {"kind",   "seed",   "threads",
                                            "shards", "setups", "trace"};
const std::set<std::string> kArenaFlags = {
    "cluster-size", "cluster-p", "cluster-seed", "clusters",
    "sessions",     "interarrival", "lifetime"};
const std::set<std::string> kLossyFlags = {
    "nodes",        "edge-p", "graph-seed", "p-leave", "p-join", "churn-seed",
    "epoch-period", "epochs", "loss",       "window",  "frames", "retries"};

/// Refuses any flag outside the common set and the kind's own set, and
/// requires every flag of both except --trace.
void check_flags(int argc, char** argv, const util::Cli& cli,
                 const std::set<std::string>& sizing) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const std::string name = arg.substr(2, arg.find('=') - 2);
    if (!kCommonFlags.count(name) && !sizing.count(name))
      throw std::invalid_argument("unknown flag --" + name);
  }
  for (const auto* names : {&kCommonFlags, &sizing})
    for (const std::string& name : *names)
      if (name != "trace" && !cli.has(name))
        throw std::invalid_argument("missing flag --" + name);
}

std::uint64_t get_u64(const util::Cli& cli, const char* name) {
  const std::int64_t v = cli.get_int(name, 0);
  if (v < 0) throw std::invalid_argument(std::string("--") + name + " < 0");
  return static_cast<std::uint64_t>(v);
}

Params parse(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  Params p;
  p.kind = cli.get("kind", "");
  if (p.kind != "arena" && p.kind != "lossy")
    throw std::invalid_argument("--kind must be arena or lossy");
  check_flags(argc, argv, cli, p.kind == "arena" ? kArenaFlags : kLossyFlags);
  p.seed = get_u64(cli, "seed");
  p.threads = static_cast<unsigned>(get_u64(cli, "threads"));
  p.shards = static_cast<unsigned>(get_u64(cli, "shards"));
  p.trace = cli.get_bool("trace", false);
  p.setups = static_cast<int>(get_u64(cli, "setups"));
  if (p.kind == "arena") {
    p.cluster_size = static_cast<NodeId>(get_u64(cli, "cluster-size"));
    p.cluster_p = cli.get_double("cluster-p", 0.0);
    p.cluster_seed = get_u64(cli, "cluster-seed");
    p.clusters = static_cast<NodeId>(get_u64(cli, "clusters"));
    p.sessions = get_u64(cli, "sessions");
    p.interarrival = cli.get_double("interarrival", 0.0);
    p.lifetime = cli.get_double("lifetime", 0.0);
  } else {
    p.nodes = static_cast<NodeId>(get_u64(cli, "nodes"));
    p.edge_p = cli.get_double("edge-p", 0.0);
    p.graph_seed = get_u64(cli, "graph-seed");
    p.p_leave = cli.get_double("p-leave", 0.0);
    p.p_join = cli.get_double("p-join", 0.0);
    p.churn_seed = get_u64(cli, "churn-seed");
    p.epoch_period = get_u64(cli, "epoch-period");
    p.epochs = get_u64(cli, "epochs");
    p.loss = cli.get_double("loss", 0.0);
    p.window = static_cast<std::uint32_t>(get_u64(cli, "window"));
    p.frames = static_cast<std::uint32_t>(get_u64(cli, "frames"));
    p.retries = static_cast<std::uint32_t>(get_u64(cli, "retries"));
  }
  if (p.threads < 1 || p.shards < 1 || p.setups < 1)
    throw std::invalid_argument("--threads, --shards, --setups must be >= 1");
  return p;
}

/// The option structs of one workload, all built here so an API change in
/// them is a one-place edit.
struct Options {
  core::TrafficOptions traffic;
  baselines::OpenLoopWorkload::Config open_loop;  ///< arena kind only
};

Options make_options(const Params& p) {
  Options o;
  o.traffic.seq_seed = kSeqSeed;
  o.traffic.batch = kBatch;
  o.traffic.threads = p.threads;
  o.traffic.shards = p.shards;
  if (p.kind == "arena") {
    o.open_loop.cluster_size = p.cluster_size;
    o.open_loop.clusters = p.clusters;
    o.open_loop.sessions = p.sessions;
    o.open_loop.mean_interarrival = p.interarrival;
    o.open_loop.mean_lifetime = p.lifetime;
    o.open_loop.seed = util::counter_hash(p.seed, 1);
    return o;
  }
  o.traffic.epoch_period = p.epoch_period;
  o.traffic.max_epochs = p.epochs;
  core::LossyTrafficConfig lossy;
  lossy.link.loss = p.loss;
  lossy.arq = core::ArqKind::kSelectiveRepeat;
  lossy.window.window = p.window;
  lossy.window.frames_per_message = p.frames;
  lossy.window.max_retries = p.retries;
  lossy.net_seed = util::counter_hash(p.seed, 2);
  o.traffic.lossy = lossy;
  return o;
}

// ---- tracing probes (benchmark-side decorators) -----------------------------

/// One thread's tracing counters; cache-line sized so threads never share.
struct alignas(64) ThreadCounters {
  std::uint64_t fill_calls = 0;
  std::uint64_t symbols_filled = 0;
  std::uint64_t symbol_calls = 0;
  std::uint64_t fill_timed_calls = 0;
  std::uint64_t fill_timed_ns = 0;
};

/// Per-thread counter slots, summed once the run is over (the engine's
/// workers are idle then).  Each thread registers its slot on first use;
/// slots outlive the threads, so a finished engine's counts stay readable.
class Tracer {
 public:
  ThreadCounters& local() {
    thread_local ThreadCounters* mine = nullptr;
    if (mine == nullptr) {
      const std::lock_guard<std::mutex> lock(m_);
      slots_.push_back(std::make_unique<ThreadCounters>());
      mine = slots_.back().get();
    }
    return *mine;
  }

  ThreadCounters total() const {
    const std::lock_guard<std::mutex> lock(m_);
    ThreadCounters t;
    for (const auto& s : slots_) {
      t.fill_calls += s->fill_calls;
      t.symbols_filled += s->symbols_filled;
      t.symbol_calls += s->symbol_calls;
      t.fill_timed_calls += s->fill_timed_calls;
      t.fill_timed_ns += s->fill_timed_ns;
    }
    return t;
  }

 private:
  mutable std::mutex m_;
  std::vector<std::unique_ptr<ThreadCounters>> slots_;
};

Tracer& tracer() {
  static Tracer t;
  return t;
}

/// Every kFillTimingStride-th fill() call of each thread is timed; timing
/// every call would cost two clock reads per 64-symbol window.
constexpr std::uint64_t kFillTimingStride = 16;

/// Forwards to the standard T_n and counts what the engine asks of it.
class CountingSequence final : public explore::ExplorationSequence {
 public:
  explicit CountingSequence(
      std::shared_ptr<const explore::ExplorationSequence> inner)
      : inner_(std::move(inner)) {}

  std::uint64_t length() const override { return inner_->length(); }
  explore::Symbol symbol(std::uint64_t i) const override {
    ++tracer().local().symbol_calls;
    return inner_->symbol(i);
  }
  void fill(std::uint64_t i_begin, std::uint64_t count,
            explore::Symbol* out) const override {
    ThreadCounters& c = tracer().local();
    if (c.fill_calls++ % kFillTimingStride == 0) {
      const Clock::time_point t0 = Clock::now();
      inner_->fill(i_begin, count, out);
      c.fill_timed_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count());
      ++c.fill_timed_calls;
    } else {
      inner_->fill(i_begin, count, out);
    }
    c.symbols_filled += count;
  }
  NodeId target_size() const override { return inner_->target_size(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const explore::ExplorationSequence> inner_;
};

/// Registers a counting sequence under the engine's cache key for a
/// reduced graph of `cubic_nodes` nodes.  A key that drifts from the
/// engine's shows as SequenceCache misses during a traced run, which
/// run.py refuses.
void register_counting(NodeId cubic_nodes) {
  const NodeId n = std::max<NodeId>(cubic_nodes, 1);
  explore::SequenceCache::global().get("standard", n, kSeqSeed, [&] {
    return std::make_shared<CountingSequence>(
        explore::standard_ues(n, kSeqSeed));
  });
}

/// Forwarding arrival source: counts and times the workload's next().
class CountingSource final : public core::ArrivalSource {
 public:
  explicit CountingSource(core::ArrivalSource& inner) : inner_(&inner) {}
  std::optional<core::SessionSpec> next() override {
    const Clock::time_point t0 = Clock::now();
    std::optional<core::SessionSpec> spec = inner_->next();
    next_s_ += seconds_since(t0);
    if (spec)
      ++pulled_;
    else
      exhausted_ = true;
    return spec;
  }
  std::uint64_t pulled() const { return pulled_; }
  bool exhausted() const { return exhausted_; }
  double next_s() const { return next_s_; }

 private:
  core::ArrivalSource* inner_;
  std::uint64_t pulled_ = 0;
  bool exhausted_ = false;
  double next_s_ = 0.0;
};

// ---- one workload instance --------------------------------------------------

/// A set-up workload, ready to run.  Members are declared in lifetime
/// order: the engine borrows the graph and the arrival sources, which live
/// on the heap so their addresses stay fixed.
struct Instance {
  std::unique_ptr<graph::Graph> graph;                   ///< arena kind
  std::unique_ptr<graph::NodeChurnScenario> scenario;    ///< lossy kind
  std::unique_ptr<baselines::OpenLoopWorkload> arrivals;  ///< arena kind
  std::unique_ptr<CountingSource> counting;               ///< traced arena
  std::unique_ptr<core::TrafficEngine> engine;
  double graph_build_s = 0.0;
  double engine_ctor_s = 0.0;
};

graph::Graph cluster_topology(const Params& p) {
  return graph::disjoint_copies(
      graph::connected_gnp(p.cluster_size, p.cluster_p, p.cluster_seed),
      p.clusters);
}

std::unique_ptr<graph::NodeChurnScenario> churn_scenario(const Params& p) {
  return std::make_unique<graph::NodeChurnScenario>(
      graph::connected_gnp(p.nodes, p.edge_p, p.graph_seed), p.p_leave,
      p.p_join, p.churn_seed);
}

/// Pre-registers counting sequences under every key the engine will ask
/// SequenceCache for: the static reduction's size (arena), or the
/// reduction size of every epoch the churn schedule commits (lossy).
void register_trace_keys(const Params& p) {
  if (p.kind == "arena") {
    register_counting(static_cast<NodeId>(
        explore::reduce_to_cubic(cluster_topology(p)).cubic.num_nodes()));
    return;
  }
  auto scenario = churn_scenario(p);
  graph::DynamicGraph dg = scenario->initial();
  std::set<NodeId> sizes;
  for (std::uint64_t e = 0;; ++e) {
    sizes.insert(static_cast<NodeId>(
        explore::reduce_to_cubic(dg.snapshot()).cubic.num_nodes()));
    if (e == p.epochs) break;
    scenario->advance(dg);
  }
  for (NodeId n : sizes) register_counting(n);
}

std::unique_ptr<Instance> set_up(const Params& p, const Options& o) {
  auto inp = std::make_unique<Instance>();
  Instance& in = *inp;
  Clock::time_point t0 = Clock::now();
  if (p.kind == "arena")
    in.graph = std::make_unique<graph::Graph>(cluster_topology(p));
  else
    in.scenario = churn_scenario(p);
  in.graph_build_s = seconds_since(t0);

  t0 = Clock::now();
  if (p.kind == "arena")
    in.engine = std::make_unique<core::TrafficEngine>(*in.graph, o.traffic);
  else
    in.engine = std::make_unique<core::TrafficEngine>(*in.scenario, o.traffic);
  in.engine_ctor_s = seconds_since(t0);

  if (p.kind == "arena") {
    in.arrivals = std::make_unique<baselines::OpenLoopWorkload>(o.open_loop);
    if (p.trace) {
      in.counting = std::make_unique<CountingSource>(*in.arrivals);
      in.engine->attach_arrivals(*in.counting);
    } else {
      in.engine->attach_arrivals(*in.arrivals);
    }
  } else {
    in.engine->admit_all(baselines::all_pairs_workload(p.nodes).sessions);
  }
  return inp;
}

// ---- verdict audit and digest -----------------------------------------------

enum Verdict : int {
  kDelivered = 0,
  kCertified = 1,
  kUncertified = 2,
  kExhausted = 3,
  kDeparted = 4,
  kInvalid = 5,  ///< unfinished, or not exactly one end state
};

Verdict verdict_of(const core::SessionReport& r) {
  const int states = r.delivered + r.failure_certified + r.uncertified +
                     r.exhausted + r.departed;
  if (!r.finished || states != 1) return kInvalid;
  if (r.delivered) return kDelivered;
  if (r.failure_certified) return kCertified;
  if (r.uncertified) return kUncertified;
  if (r.exhausted) return kExhausted;
  return kDeparted;
}

/// FNV-1a over (verdict, transmissions, completed_at) in session-id order.
std::uint64_t verdict_digest(const std::vector<core::SessionReport>& reports) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const core::SessionReport& r : reports) {
    mix(static_cast<std::uint64_t>(verdict_of(r)));
    mix(r.transmissions);
    mix(r.completed_at);
  }
  return h;
}

/// Ground-truth component labels keyed by the DynamicGraph epoch each
/// verdict names.  Static runs have the one entry epoch 0.  An epoch is
/// recorded only when commit() really advanced it, so the key is the
/// replayed epoch() value, not the number of advance() calls.
std::map<std::uint64_t, std::vector<std::uint32_t>> ground_truth(
    const Params& p, const Instance& in) {
  std::map<std::uint64_t, std::vector<std::uint32_t>> comp;
  if (p.kind == "arena") {
    comp[0] = graph::connected_components(*in.graph);
    return comp;
  }
  auto replay = churn_scenario(p);
  graph::DynamicGraph dg = replay->initial();
  comp[dg.epoch()] = graph::connected_components(dg.snapshot());
  for (std::uint64_t e = 0; e < p.epochs; ++e) {
    replay->advance(dg);
    if (!comp.count(dg.epoch()))
      comp[dg.epoch()] = graph::connected_components(dg.snapshot());
  }
  return comp;
}

struct Audit {
  std::uint64_t counts[6] = {0, 0, 0, 0, 0, 0};  ///< indexed by Verdict
  std::uint64_t unsound = 0;  ///< delivered/certified against ground truth
  std::uint64_t failed = 0;   ///< invalid + unsound sessions
};

Audit audit(const Params& p, const Instance& in) {
  const auto comp = ground_truth(p, in);
  Audit a;
  for (const core::SessionReport& r : in.engine->reports()) {
    const Verdict v = verdict_of(r);
    ++a.counts[v];
    if (v != kDelivered && v != kCertified) continue;
    const auto it = comp.find(r.completion_epoch);
    if (it == comp.end()) {  // a verdict about an epoch that never existed
      ++a.unsound;
      continue;
    }
    const bool reachable = it->second[r.s] == it->second[r.t];
    a.unsound += v == kDelivered ? !reachable : reachable;
  }
  a.failed = a.counts[kInvalid] + a.unsound;
  return a;
}

// ---- output -----------------------------------------------------------------

class JsonLine {
 public:
  JsonLine& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonLine& u64(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& str(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  std::string done() const {
    std::string out(1, '{');
    out += body_.str();
    out += '}';
    return out;
  }

 private:
  JsonLine& raw(const char* key, const std::string& v) {
    if (!first_) body_ << ", ";
    first_ = false;
    body_ << "\"" << key << "\": " << v;
    return *this;
  }
  std::ostringstream body_;
  bool first_ = true;
};

int run(const Params& p) {
  const Options o = make_options(p);
  explore::SequenceCache& cache = explore::SequenceCache::global();
  if (p.trace) register_trace_keys(p);
  // Misses from here on mean the engine asked for a key the probes missed.
  const std::uint64_t probe_misses0 = cache.misses();

  // Set up `setups` times; every instance but the last is torn down.
  std::vector<double> setup_s, graph_s, ctor_s;
  std::unique_ptr<Instance> inp;
  for (int k = 0; k < p.setups; ++k) {
    inp.reset();
    const Clock::time_point t0 = Clock::now();
    inp = set_up(p, o);
    setup_s.push_back(seconds_since(t0));
    graph_s.push_back(inp->graph_build_s);
    ctor_s.push_back(inp->engine_ctor_s);
  }
  const Instance& in = *inp;

  core::TrafficEngine& engine = *in.engine;
  const std::uint64_t hits0 = cache.hits();
  const std::uint64_t misses0 = cache.misses();

  util::Samples round_ms;
  std::uint64_t in_flight_max = 0;
  double rss_growth_mb = 0.0;  ///< peak resident growth over the run
  double run_s = 0.0;
  if (!p.trace) {
    const Clock::time_point t0 = Clock::now();
    engine.run();
    run_s = seconds_since(t0);
  } else {
    // Equivalent to run(): rounds continue while sessions are unfinished,
    // the stream is not exhausted, or a pulled arrival is still staged.
    const CountingSource* src = in.counting.get();
    auto more = [&] {
      return engine.unfinished_count() > 0 ||
             (src && (!src->exhausted() ||
                      src->pulled() > engine.session_count()));
    };
    const double rss0 = rss_mb_now();
    double rss_max = rss0;
    const Clock::time_point t0 = Clock::now();
    while (more()) {
      const Clock::time_point r0 = Clock::now();
      engine.run_round();
      round_ms.add(1e3 * seconds_since(r0));
      in_flight_max = std::max<std::uint64_t>(in_flight_max,
                                              engine.unfinished_count());
      rss_max = std::max(rss_max, rss_mb_now());
    }
    run_s = seconds_since(t0);
    rss_growth_mb = rss_max - rss0;
  }
  const std::uint64_t cache_hits = cache.hits() - hits0;
  const std::uint64_t cache_misses = cache.misses() - misses0;

  // ---- everything below is outside the timed region ----
  const Audit a = audit(p, in);
  const std::vector<core::SessionReport>& reports = engine.reports();
  util::Samples latency;
  std::uint64_t tx = 0, hops = 0, retx = 0, vtime_delivered = 0, restarts = 0;
  for (const core::SessionReport& r : reports) {
    tx += r.transmissions;
    hops += r.hops;
    retx += r.retransmits;
    restarts += r.restarts;
    if (r.delivered) vtime_delivered += r.virtual_time;
    if (r.finished && (r.delivered || r.failure_certified))
      latency.add(static_cast<double>(r.completed_at - r.admitted_at));
  }
  const std::uint64_t expected =
      p.kind == "arena" ? p.sessions
                        : std::uint64_t{p.nodes} * (p.nodes - 1);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  JsonLine j;
  j.str("kind", p.kind)
      .u64("seed", p.seed)
      .u64("threads", p.threads)
      .u64("shards", p.shards)
      .u64("trace", p.trace)
      .num("setup_s", median(setup_s))
      .num("graph_build_s", median(graph_s))
      .num("engine_ctor_s", median(ctor_s))
      .num("run_s", run_s)
      .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
      .u64("sessions_expected", expected)
      .u64("sessions", reports.size())
      .u64("delivered", a.counts[kDelivered])
      .u64("certified", a.counts[kCertified])
      .u64("uncertified", a.counts[kUncertified])
      .u64("exhausted", a.counts[kExhausted])
      .u64("departed", a.counts[kDeparted])
      .u64("invalid", a.counts[kInvalid])
      .u64("unsound", a.unsound)
      .u64("failed", a.failed)
      .str("digest", [&] {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(verdict_digest(reports)));
        return std::string(buf);
      }())
      .u64("completed", latency.count())
      .num("p50_completion", latency.count() ? latency.percentile(50) : 0.0)
      .num("p99_completion", latency.count() ? latency.percentile(99) : 0.0)
      .u64("tx", tx)
      .u64("hops", hops)
      .u64("retransmits", retx)
      .u64("vtime_delivered", vtime_delivered)
      .u64("restarts", restarts)
      .u64("clock", engine.clock())
      .u64("epoch", engine.epoch())
      .u64("cache_hits", cache_hits)
      .u64("cache_misses", cache_misses);
  if (p.trace) {
    const ThreadCounters c = tracer().total();
    const double fill_s =
        c.fill_timed_calls
            ? 1e-9 * static_cast<double>(c.fill_timed_ns) *
                  static_cast<double>(c.fill_calls) /
                  static_cast<double>(c.fill_timed_calls)
            : 0.0;
    j.u64("rounds", round_ms.count())
        .num("round_ms_p50", round_ms.count() ? round_ms.percentile(50) : 0.0)
        .num("round_ms_p99", round_ms.count() ? round_ms.percentile(99) : 0.0)
        .u64("in_flight_max", in_flight_max)
        .num("rss_growth_mb", rss_growth_mb)
        .u64("probe_misses", cache.misses() - probe_misses0)
        .u64("arrivals_pulled", in.counting ? in.counting->pulled() : 0)
        .num("next_s", in.counting ? in.counting->next_s() : 0.0)
        .u64("fill_calls", c.fill_calls)
        .u64("symbols_filled", c.symbols_filled)
        .u64("symbol_calls", c.symbol_calls)
        .u64("fill_timed_calls", c.fill_timed_calls)
        .num("fill_s", fill_s);
  }
  std::cout << j.done() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "uesr_e2e: " << e.what() << "\n";
    return 2;
  }
}
