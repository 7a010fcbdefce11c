// The repository benchmark's driver: runs one named workload in this
// single-threaded process, times it, checks its outputs and prints the
// result (see perfbench/README.md for the workloads and metrics).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --reference <reference.json> [--size full|smoke]
//   perfbench --workload fattree8_hybrid --seed <n> --make-reference
//
// Only the simulator's public entry points are called: harness::Testbed,
// net::build_fat_tree, workload::ClientServerWorkload, hybrid::Engine and
// sim::Simulator::run. The traced run installs a clove::prof summary
// profiler through its API and times its own spans around those calls.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "hybrid/hybrid.hpp"
#include "lb/ecmp.hpp"
#include "net/fat_tree.hpp"
#include "net/packet_pool.hpp"
#include "overlay/flowlet.hpp"
#include "overlay/hypervisor.hpp"
#include "overlay/path_health.hpp"
#include "prof/prof.hpp"
#include "sim/simulator.hpp"
#include "telemetry/json.hpp"
#include "workload/client_server.hpp"

extern char** environ;

namespace {

using namespace clove;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

/// One named workload, every field pinned here: nothing is read from the
/// environment (a CLOVE_* variable makes the driver refuse to run).
struct Spec {
  std::string name;
  harness::Scheme scheme{harness::Scheme::kEcmp};
  bool fat_tree{false};    ///< k=8 fat-tree; else the 2x2 leaf-spine testbed
  bool asymmetric{false};  ///< one S2-L2 link failed for the whole run
  bool path_health{false};
  bool hybrid{false};
  double load{0.5};
  int conns_per_client{2};
  int jobs_per_conn{10};
  // Fault schedule (fault_clove_int only; fail_at == 0 means no fault).
  sim::Time pre_start{0};
  sim::Time fail_at{0};
  sim::Time convergence{0};
  sim::Time restore_at{0};
};

constexpr sim::Time kTrafficStart = 30 * sim::kMillisecond;
constexpr sim::Time kDeadline = 20 * sim::kSecond;
/// Arrival buckets of bench_fault_recovery's recovery definition.
constexpr sim::Time kBucket = 50 * sim::kMillisecond;
constexpr int kMinBucketMice = 5;
constexpr double kRecoveredWithin = 1.2;
constexpr std::size_t kSetupSamples = 21;

bool make_spec(const std::string& name, bool smoke, Spec* s) {
  s->name = name;
  if (name == "asym_clove_ecn") {
    s->scheme = harness::Scheme::kCloveEcn;
    s->asymmetric = true;
    s->load = 0.7;
    s->jobs_per_conn = smoke ? 6 : 16;
    return true;
  }
  if (name == "fault_clove_int") {
    s->scheme = harness::Scheme::kCloveInt;
    s->path_health = true;
    s->load = 0.1;
    if (smoke) {
      s->jobs_per_conn = 12;
      s->pre_start = 35 * sim::kMillisecond;
      s->fail_at = 50 * sim::kMillisecond;
      s->convergence = 50 * sim::kMillisecond;
      s->restore_at = 110 * sim::kMillisecond;
    } else {
      s->jobs_per_conn = 17;
      s->pre_start = 40 * sim::kMillisecond;
      s->fail_at = 80 * sim::kMillisecond;
      s->convergence = 100 * sim::kMillisecond;
      s->restore_at = 480 * sim::kMillisecond;
    }
    return true;
  }
  if (name == "fattree8_hybrid") {
    s->scheme = harness::Scheme::kEcmp;
    s->fat_tree = true;
    s->hybrid = true;
    s->load = 0.25;
    s->jobs_per_conn = smoke ? 4 : 12;
    return true;
  }
  return false;
}

std::string topology_label(const Spec& s) {
  if (s.fat_tree) return "fat-tree k=8 (128 hosts, pods 0-3 -> 4-7)";
  std::string t = "leaf-spine 2x2 (16 hosts/leaf, 2 links/pair";
  t += s.asymmetric ? ", S2-L2 failed)" : ")";
  return t;
}

// ---------------------------------------------------------------------------
// One simulated run
// ---------------------------------------------------------------------------

struct Job {
  std::uint64_t size;
  sim::Time arrival;
  sim::Time finished;
};

/// Work counters of one run, read after the simulation (cold path).
struct Counters {
  std::uint64_t events{0}, queue_hwm{0};
  std::uint64_t link_tx{0}, switch_forwarded{0};
  std::uint64_t drops_overflow{0}, drops_down{0}, drops_fault{0}, ecn_marks{0};
  std::uint64_t pool_allocated{0}, pool_reused{0};
  std::uint64_t encapped{0}, feedback_received{0}, ce_intercepted{0};
  std::uint64_t keepalives_sent{0}, evictions{0}, readmissions{0};
  std::uint64_t flowlet_entries{0}, flowlet_probe_sum{0};
  transport::TcpSenderStats tcp;
  std::uint64_t evict_repins{0};
  hybrid::HybridStats hyb;
  fault::FaultInjectorStats fault;
  std::size_t fault_plan_size{0};
};

struct RunResult {
  // Host-time spans (seconds), recorded around the public calls.
  double build_s{0}, discovery_call_s{0}, workload_s{0};
  double discovery_run_s{0}, traffic_run_s{0};
  [[nodiscard]] double setup_s() const {
    return build_s + discovery_call_s + workload_s;
  }
  [[nodiscard]] double run_s() const { return discovery_run_s + traffic_run_s; }

  std::uint64_t jobs_total{0}, jobs_done{0}, bytes_offered{0};
  sim::Time last_arrival{0};
  std::vector<Job> jobs;  ///< completion order
  std::uint64_t digest{0};
  Counters c;
};

/// The k=8 fat-tree built directly on net::build_fat_tree (harness::Testbed
/// is leaf-spine only): ECMP hypervisors, clients in the first half of the
/// pods, servers in the second.
struct FatTreeFabric {
  sim::Simulator sim;
  net::Topology topo{sim};
  std::vector<overlay::Hypervisor*> clients, servers;
  std::unique_ptr<hybrid::Engine> engine;
  double access_bytes_per_sec{0};

  FatTreeFabric(std::uint64_t seed, bool hybrid_on) : sim(seed) {
    net::FatTreeConfig cfg;
    cfg.k = 8;
    net::FatTree ft = net::build_fat_tree(
        topo, cfg, [this](net::Topology& t, const std::string& name, int) {
          overlay::HypervisorConfig h;
          h.tcp.ecn = true;
          return static_cast<net::Node*>(t.add_host<overlay::Hypervisor>(
              name, sim, h, std::make_unique<lb::EcmpPolicy>()));
        });
    const int pods = ft.n_pods();
    for (int pod = 0; pod < pods; ++pod) {
      auto& side = pod < pods / 2 ? clients : servers;
      for (net::Node* h : ft.hosts_by_pod[static_cast<std::size_t>(pod)]) {
        side.push_back(static_cast<overlay::Hypervisor*>(h));
      }
    }
    // Full bisection: the clients' access links are the deliverable cut.
    access_bytes_per_sec = sim::gbps_to_bytes_per_sec(cfg.host_gbps) *
                           static_cast<double>(clients.size());
    if (hybrid_on) {
      hybrid::HybridConfig hc;  // engine defaults, never CLOVE_HYBRID_*
      hc.enabled = true;
      engine = std::make_unique<hybrid::Engine>(sim, hc);
      for (const auto& l : topo.links()) engine->add_link(l.get());
      for (net::Node* h : topo.hosts()) {
        static_cast<overlay::Hypervisor*>(h)->set_hybrid(engine.get());
      }
    }
  }
};

harness::ExperimentConfig leaf_spine_config(const Spec& s, std::uint64_t seed) {
  harness::ExperimentConfig cfg = harness::make_testbed_profile();
  cfg.scheme = s.scheme;
  cfg.asymmetric = s.asymmetric;
  cfg.seed = seed;
  cfg.topo = net::LeafSpineConfig{};
  cfg.traffic_start = kTrafficStart;
  cfg.max_sim_time = kDeadline;
  cfg.hybrid = hybrid::HybridConfig{};  // packet-exact
  cfg.fault_plan = fault::FaultPlan{};
  cfg.path_health = overlay::PathHealthConfig{};
  cfg.path_health.enabled = s.path_health;
  if (s.fail_at > 0) {
    // bench_fault_recovery's recovery setup on a shortened schedule, so the
    // failure and the link's return both land inside the traffic window.
    cfg.discovery.probe_interval = 250 * sim::kMillisecond;
    cfg.clove_congestion_expiry = 20 * sim::kMillisecond;
    cfg.fault_plan.route_convergence = s.convergence;
    cfg.fault_plan.add(s.fail_at, fault::FaultKind::kLinkDown, "L2->S2#0");
    cfg.fault_plan.add(s.restore_at, fault::FaultKind::kLinkUp, "L2->S2#0");
  }
  return cfg;
}

/// Seed of repetition r of a run at `seed`: r = 0 is `seed` itself, later
/// repetitions draw well-mixed seeds that no other run's r = 0 shares.
std::uint64_t scenario_seed(std::uint64_t seed, int r) {
  if (r == 0) return seed;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(r);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) | (1ull << 62);
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

/// One built scenario: fabric, hosts, routes and the started workload, every
/// piece reached through the simulator's public entry points. Members are
/// declared so the workload (whose senders live on the hosts) goes first.
struct Instance {
  std::unique_ptr<harness::Testbed> tb;
  std::unique_ptr<FatTreeFabric> ft;
  workload::ClientServerConfig wl;
  std::unique_ptr<workload::ClientServerWorkload> ws;

  sim::Simulator& sim() { return tb ? tb->simulator() : ft->sim; }
  net::Topology& topo() { return tb ? tb->topology() : ft->topo; }
  std::vector<overlay::Hypervisor*>& clients() {
    return tb ? tb->clients() : ft->clients;
  }
  std::vector<overlay::Hypervisor*>& servers() {
    return tb ? tb->servers() : ft->servers;
  }
  hybrid::Engine* engine() { return tb ? tb->hybrid() : ft->engine.get(); }
};

/// Set up `s` at `seed` up to its first simulated event, recording the
/// host-time spans of each public call into `r`.
std::unique_ptr<Instance> build(const Spec& s, std::uint64_t seed,
                                bool hybrid_on, RunResult* r) {
  auto in = std::make_unique<Instance>();
  auto t = Clock::now();
  if (s.fat_tree) {
    in->ft = std::make_unique<FatTreeFabric>(seed, hybrid_on);
  } else {
    in->tb = std::make_unique<harness::Testbed>(leaf_spine_config(s, seed));
  }
  r->build_s = seconds_since(t);

  t = Clock::now();
  if (in->tb) in->tb->start_discovery();
  r->discovery_call_s = seconds_since(t);

  // Closed loop per connection: Poisson web-search arrivals queue behind
  // each other on their connection.
  workload::ClientServerConfig& wl = in->wl;
  wl.conns_per_client = s.conns_per_client;
  wl.jobs_per_conn = s.jobs_per_conn;
  wl.assignment = workload::ServerAssignment::kPermutation;
  wl.load = s.load;
  wl.sizes = workload::FlowSizeDistribution::web_search();
  wl.start_time = kTrafficStart;
  wl.seed = seed * 977 + 3;
  wl.use_mptcp = false;
  if (in->tb) {
    // run_fct_experiment's pricing: the fabric cut or the clients' access
    // bandwidth, whichever is smaller.
    const harness::ExperimentConfig& cfg = in->tb->config();
    wl.tcp = cfg.tcp;
    wl.bisection_bytes_per_sec = std::min(
        sim::gbps_to_bytes_per_sec(cfg.topo.fabric_gbps) * cfg.topo.n_spines *
            cfg.topo.links_per_pair,
        sim::gbps_to_bytes_per_sec(cfg.topo.host_gbps) *
            cfg.topo.hosts_per_leaf);
  } else {
    wl.tcp.ecn = true;
    wl.bisection_bytes_per_sec = in->ft->access_bytes_per_sec;
  }

  t = Clock::now();
  in->ws = std::make_unique<workload::ClientServerWorkload>(
      in->sim(), wl, in->clients(), in->servers());
  in->ws->on_job = [r](std::uint64_t size, sim::Time arrival, sim::Time done) {
    r->jobs.push_back(Job{size, arrival, done});
  };
  sim::Simulator* sim = &in->sim();
  in->ws->start([sim] { sim->stop(); });
  r->workload_s = seconds_since(t);
  r->jobs.reserve(in->ws->jobs_total());
  return in;
}

/// Build, run and read out one instance of `s` at `seed`. With `profiler`
/// non-null the simulation runs under it (traced run); set-up never does.
RunResult run_once(const Spec& s, std::uint64_t seed, bool hybrid_on,
                   prof::Profiler* profiler) {
  RunResult r;
  prof::InstallGuard unprofiled(nullptr);
  const std::unique_ptr<Instance> in = build(s, seed, hybrid_on, &r);
  sim::Simulator& sim = in->sim();
  {
    prof::InstallGuard traced(profiler);
    auto t = Clock::now();
    sim.run(kTrafficStart);
    r.discovery_run_s = seconds_since(t);
    t = Clock::now();
    sim.run(kDeadline);
    r.traffic_run_s = seconds_since(t);
  }

  const workload::ClientServerWorkload& ws = *in->ws;
  r.jobs_total = ws.jobs_total();
  r.jobs_done = ws.jobs_done();
  r.bytes_offered = ws.bytes_offered();
  net::Topology& topo = in->topo();
  std::vector<overlay::Hypervisor*>& clients = in->clients();
  std::vector<overlay::Hypervisor*>& servers = in->servers();
  const workload::ClientServerConfig& wl = in->wl;
  Counters& c = r.c;
  c.events = sim.events_processed();
  c.queue_hwm = sim.queue_high_water();
  for (const auto& l : topo.links()) {
    const net::LinkStats& ls = l->stats();
    c.link_tx += ls.tx_packets;
    c.drops_overflow += ls.drops_overflow;
    c.drops_down += ls.drops_down;
    c.drops_fault += ls.drops_fault;
    c.ecn_marks += ls.ecn_marks;
  }
  for (const net::Switch* sw : topo.switches()) {
    c.switch_forwarded += sw->stats().forwarded;
  }
  const auto& pool = net::PacketPool::of(sim);
  c.pool_allocated = pool.allocated();
  c.pool_reused = pool.reused();
  for (net::Node* n : topo.hosts()) {
    auto* h = static_cast<overlay::Hypervisor*>(n);
    c.encapped += h->stats().encapped;
    c.feedback_received += h->stats().feedback_received;
    c.ce_intercepted += h->stats().ce_intercepted;
    if (const auto* ph = h->path_health()) {
      c.keepalives_sent += ph->stats().keepalives_sent;
      c.evictions += ph->stats().evictions;
      c.readmissions += ph->stats().readmissions;
    }
    if (auto* fl = h->policy().flowlet_tracker()) {
      const auto st = fl->probe_stats();
      c.flowlet_entries += st.size;
      c.flowlet_probe_sum += st.probe_sum;
    }
  }
  c.tcp = ws.transport_totals();
  // Re-pins are not in the workload's totals: find each connection's sender
  // through the client's endpoint table (source ports are assigned in
  // sequence from base_src_port across all clients).
  const int n_conns = static_cast<int>(clients.size()) * s.conns_per_client;
  for (overlay::Hypervisor* cl : clients) {
    for (int p = 0; p < n_conns; ++p) {
      for (overlay::Hypervisor* sv : servers) {
        const net::FiveTuple key{
            cl->ip(), sv->ip(),
            static_cast<std::uint16_t>(wl.base_src_port + p), wl.dst_port,
            net::Proto::kTcp};
        if (auto* snd = dynamic_cast<transport::TcpSender*>(
                cl->hybrid_find_endpoint(key))) {
          c.evict_repins += snd->stats().evict_repins;
        }
      }
    }
  }
  if (in->engine() != nullptr) c.hyb = in->engine()->stats();
  if (in->tb && in->tb->fault_injector() != nullptr) {
    c.fault = in->tb->fault_injector()->stats();
    c.fault_plan_size = in->tb->fault_injector()->plan().events.size();
  }

  std::uint64_t h = 1469598103934665603ull;
  for (const Job& j : r.jobs) {
    h = fnv(h, j.size);
    h = fnv(h, static_cast<std::uint64_t>(j.arrival));
    h = fnv(h, static_cast<std::uint64_t>(j.finished));
    r.last_arrival = std::max(r.last_arrival, j.arrival);
  }
  h = fnv(h, c.events);
  h = fnv(h, c.link_tx);
  h = fnv(h, c.ecn_marks);
  h = fnv(h, c.drops_overflow + c.drops_down + c.drops_fault);
  r.digest = h;
  return r;
}

// ---------------------------------------------------------------------------
// Simulated metrics
// ---------------------------------------------------------------------------

struct Percentile {
  double value_ms{0};
  double p{0};
  std::size_t n{0};
  std::size_t beyond{0};
};

/// Linear-interpolated percentile of sorted `v` (the stats::Samples rule);
/// `beyond` counts the samples strictly above the interpolation rank.
Percentile percentile_of(const std::vector<double>& v, double p) {
  Percentile out;
  out.p = p;
  out.n = v.size();
  if (v.empty()) return out;
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  out.value_ms = v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
  out.beyond = v.size() - 1 - lo;
  return out;
}

/// The highest percentile up to p99 with at least 10 samples beyond it.
Percentile tail_percentile(const std::vector<double>& sorted) {
  static const double kLadder[] = {99.0, 98.0, 95.0, 90.0, 75.0, 50.0};
  for (double p : kLadder) {
    const Percentile q = percentile_of(sorted, p);
    if (q.beyond >= 10) return q;
  }
  return percentile_of(sorted, 50.0);
}

struct FctSummary {
  double avg_ms{0};
  Percentile mice_p50, mice_tail;
  double backlog_growth{0};
};

FctSummary summarize_fct(const RunResult& r) {
  FctSummary s;
  std::vector<double> mice;
  double sum = 0;
  for (const Job& j : r.jobs) {
    const double ms = sim::to_milliseconds(j.finished - j.arrival);
    sum += ms;
    if (j.size < stats::FctRecorder::kMiceMaxBytes) mice.push_back(ms);
  }
  s.avg_ms = r.jobs.empty() ? 0 : sum / static_cast<double>(r.jobs.size());
  std::sort(mice.begin(), mice.end());
  s.mice_p50 = percentile_of(mice, 50.0);
  s.mice_tail = tail_percentile(mice);

  // Backlog growth: mean FCT of the last quarter of arrivals over that of
  // the first quarter (near 1 when the offered load is sustainable).
  std::vector<Job> by_arrival = r.jobs;
  std::sort(by_arrival.begin(), by_arrival.end(),
            [](const Job& a, const Job& b) { return a.arrival < b.arrival; });
  const std::size_t q = by_arrival.size() / 4;
  if (q > 0) {
    double first = 0, last = 0;
    for (std::size_t i = 0; i < q; ++i) {
      first += sim::to_milliseconds(by_arrival[i].finished -
                                    by_arrival[i].arrival);
      const Job& j = by_arrival[by_arrival.size() - 1 - i];
      last += sim::to_milliseconds(j.finished - j.arrival);
    }
    s.backlog_growth = first > 0 ? last / first : 0;
  }
  return s;
}

struct Recovery {
  double pre_ms{0};
  double inflation_x{0};
  double recovery_ms{0};
  bool never{false};
};

/// bench_fault_recovery's arrival-bucketed definitions: inflation is the
/// mean FCT of mice arriving in the blackhole window over the pre-fault
/// mean; recovery is the end of the last 50 ms arrival bucket (from the
/// failure to the link's return) whose mice mean exceeds 1.2x the pre-fault
/// mean or holds fewer than 5 mice. "Never" reports the whole window.
Recovery measure_recovery(const Spec& s, const RunResult& r) {
  Recovery out;
  struct Bucket {
    double sum{0};
    int n{0};
  };
  std::vector<Bucket> buckets;
  double pre = 0, post = 0;
  int pre_n = 0, post_n = 0;
  for (const Job& j : r.jobs) {
    if (j.size >= stats::FctRecorder::kMiceMaxBytes) continue;
    const double ms = sim::to_milliseconds(j.finished - j.arrival);
    if (j.arrival >= s.pre_start && j.arrival < s.fail_at) {
      pre += ms;
      ++pre_n;
    }
    if (j.arrival >= s.fail_at && j.arrival < s.fail_at + s.convergence) {
      post += ms;
      ++post_n;
    }
    const auto idx = static_cast<std::size_t>(j.arrival / kBucket);
    if (idx >= buckets.size()) buckets.resize(idx + 1);
    buckets[idx].sum += ms;
    ++buckets[idx].n;
  }
  out.pre_ms = pre_n > 0 ? pre / pre_n : 0;
  out.inflation_x =
      (post_n > 0 && out.pre_ms > 0) ? (post / post_n) / out.pre_ms : 0;
  const auto first = static_cast<std::size_t>(s.fail_at / kBucket);
  const auto last = static_cast<std::size_t>(s.restore_at / kBucket);
  for (std::size_t i = first; i < last; ++i) {
    const Bucket b = i < buckets.size() ? buckets[i] : Bucket{};
    const double mean = b.n > 0 ? b.sum / b.n : 0;
    if (b.n < kMinBucketMice || mean > kRecoveredWithin * out.pre_ms) {
      out.recovery_ms = sim::to_milliseconds(
          static_cast<sim::Time>(i + 1) * kBucket - s.fail_at);
      out.never = (i + 1 == last);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Packet-exact reference for the hybrid workload
// ---------------------------------------------------------------------------

std::string reference_key(const Spec& s, std::uint64_t seed) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s/seed=%" PRIu64 "/jobs_per_conn=%d/conns=%d/load=%.2f",
                s.name.c_str(), seed, s.jobs_per_conn, s.conns_per_client,
                s.load);
  return buf;
}

struct Reference {
  std::uint64_t seed{0};
  double avg_ms{0}, mice_p50_ms{0}, mice_tail_ms{0}, mice_tail_p{0};
};

/// The stored packet-exact reference the hybrid run of `s` at `seed` is
/// judged against: this seed's entry when the file has one for exactly this
/// workload, seed and size, else the entry of the file's default seed.
/// Returns false (with *error set) when neither key is present.
bool load_reference(const std::string& path, const Spec& s, std::uint64_t seed,
                    Reference* ref, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read reference file '" + path + "'";
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const telemetry::Json doc = telemetry::Json::parse(ss.str(), error);
  if (!error->empty()) return false;
  const telemetry::Json& entries = doc["entries"];
  std::string key = reference_key(s, seed);
  ref->seed = seed;
  if (!entries[key].is_object() && doc["default_seed"].is_number()) {
    ref->seed = static_cast<std::uint64_t>(doc["default_seed"].as_number());
    key = reference_key(s, ref->seed);
  }
  const telemetry::Json& e = entries[key];
  if (!e.is_object()) {
    *error = "no reference entry for key " + key;
    return false;
  }
  ref->avg_ms = e["fct_avg_ms"].as_number();
  ref->mice_p50_ms = e["mice_fct_p50_ms"].as_number();
  ref->mice_tail_ms = e["mice_fct_p99_ms"].as_number();
  ref->mice_tail_p = e["mice_fct_p99_percentile"].as_number();
  return true;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

void print_metric(const Metric& m) {
  std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10};
  int trace{0};
  bool smoke{false};
  bool make_reference{false};
  std::string reference;
  bool have_seed{false};
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (k == "--workload") {
      if (!value(&a->workload)) return false;
    } else if (k == "--seed") {
      if (!value(&v) || v.empty() || v[0] == '-') return false;
      char* end = nullptr;
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
      a->have_seed = true;
    } else if (k == "--seconds") {
      if (!value(&v)) return false;
      a->seconds = std::atof(v.c_str());
      if (!(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (!value(&v) || (v != "0" && v != "1")) return false;
      a->trace = v == "1";
    } else if (k == "--size") {
      if (!value(&v) || (v != "full" && v != "smoke")) return false;
      a->smoke = v == "smoke";
    } else if (k == "--reference") {
      if (!value(&a->reference)) return false;
    } else if (k == "--make-reference") {
      a->make_reference = true;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->have_seed;
}

/// Names of CLOVE_* variables in the environment. Any of them could change
/// what a run simulates (hybrid engine, fault plans, recorders, profiler).
std::vector<std::string> clove_env_vars() {
  std::vector<std::string> out;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "CLOVE_", 6) == 0) {
      const char* eq = std::strchr(*e, '=');
      out.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <asym_clove_ecn|fault_clove_int|"
               "fattree8_hybrid> --seed <n> [--seconds <s>] [--trace 0|1]\n"
               "                 [--size full|smoke] [--reference <file>] "
               "[--make-reference]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  Spec spec;
  if (!make_spec(args.workload, args.smoke, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return usage();
  }
  if (const auto vars = clove_env_vars(); !vars.empty()) {
    std::fprintf(stderr, "refusing to run: CLOVE_* variables are set (");
    for (std::size_t i = 0; i < vars.size(); ++i) {
      std::fprintf(stderr, "%s%s", i ? ", " : "", vars[i].c_str());
    }
    std::fprintf(stderr, "); the benchmark pins its whole configuration\n");
    return 2;
  }
  const std::uint64_t seed = args.seed;

  if (args.make_reference) {
    if (!spec.hybrid) {
      std::fprintf(stderr, "--make-reference applies to fattree8_hybrid\n");
      return 2;
    }
    const RunResult r = run_once(spec, seed, /*hybrid_on=*/false, nullptr);
    if (r.jobs_done != r.jobs_total) {
      std::fprintf(stderr, "reference run left %" PRIu64 " of %" PRIu64
                   " jobs unfinished\n", r.jobs_total - r.jobs_done,
                   r.jobs_total);
      return 1;
    }
    const FctSummary f = summarize_fct(r);
    std::printf("{\"key\": \"%s\", \"fct_avg_ms\": %.17g, "
                "\"mice_fct_p50_ms\": %.17g, \"mice_fct_p99_ms\": %.17g, "
                "\"mice_fct_p99_percentile\": %.17g, \"mice\": %zu, "
                "\"events\": %" PRIu64 "}\n",
                reference_key(spec, seed).c_str(), f.avg_ms,
                f.mice_p50.value_ms, f.mice_tail.value_ms, f.mice_tail.p,
                f.mice_tail.n, r.c.events);
    return 0;
  }

  const char* engine_label =
      spec.hybrid ? "hybrid flow/packet" : "packet-exact";
  std::printf("config: workload=%s scheme=%s topology=%s load=%.2f "
              "conns/client=%d jobs/conn=%d seed=%" PRIu64
              " engine=%s trace=%d\n",
              spec.name.c_str(), harness::scheme_name(spec.scheme).c_str(),
              topology_label(spec).c_str(), spec.load, spec.conns_per_client,
              spec.jobs_per_conn, seed, engine_label, args.trace);
  if (spec.fail_at > 0) {
    std::printf("config: fault plan link_down L2->S2#0 @ %.0f ms (%.0f ms "
                "route convergence), link_up @ %.0f ms; path_health on\n",
                sim::to_milliseconds(spec.fail_at),
                sim::to_milliseconds(spec.convergence),
                sim::to_milliseconds(spec.restore_at));
  }
  std::fflush(stdout);

  // Measurement loop. Each repetition r simulates the scenario of
  // scenario_seed(seed, r): one instance's host cost swings with its inputs
  // (heavy-tailed sizes, loss episodes), so the timing metrics are medians
  // over many instances. Simulated results come from r = 0, the --seed
  // scenario itself. Untraced: run r = 0, 1, ... until --seconds is spent,
  // then r = 0 once more to check repeat determinism. Traced: run each r
  // untraced and then traced, so the profiler's overhead is a paired ratio
  // and traced outputs are checked against untraced ones.
  std::vector<std::string> failures;
  std::vector<double> setup_s, jobs_per_s, overhead;
  std::uint64_t attempted = 0, unfinished = 0;
  RunResult r0, rt;  // r = 0 untraced; r = 0 traced (traced runs only)
  std::unique_ptr<prof::Profiler> profile;
  const auto t_start = Clock::now();
  int reps = 0;
  // `sample`: an untraced run of a new instance, counted in jobs_per_s.
  auto one = [&](std::uint64_t sseed, prof::Profiler* p, bool sample) {
    RunResult r = run_once(spec, sseed, spec.hybrid, p);
    setup_s.push_back(r.setup_s());
    attempted += r.jobs_total;
    unfinished += r.jobs_total - r.jobs_done;
    if (sample) {
      jobs_per_s.push_back(static_cast<double>(r.jobs_done) / r.run_s());
    }
    ++reps;
    return r;
  };
  for (int i = 0;; ++i) {
    const std::uint64_t sseed = scenario_seed(seed, i);
    RunResult u = one(sseed, nullptr, true);
    if (args.trace == 1) {
      auto p = std::make_unique<prof::Profiler>(prof::Mode::kSummary);
      RunResult t = one(sseed, p.get(), false);
      overhead.push_back(ratio(t.run_s(), u.run_s()));
      if (t.digest != u.digest) {
        failures.push_back("traced and untraced runs simulated different "
                           "outputs at scenario seed " +
                           std::to_string(sseed));
      }
      if (i == 0) {
        rt = std::move(t);
        profile = std::move(p);
      }
    }
    if (i == 0) r0 = std::move(u);
    if (seconds_since(t_start) >= args.seconds) break;
  }
  if (args.trace == 0) {
    if (one(seed, nullptr, false).digest != r0.digest) {
      failures.push_back("simulated output differs between repeated runs at "
                         "one seed");
    }
  }
  const bool identical = failures.empty();
  // Set-up is short next to a run: repeat it alone so its median rests on
  // at least kSetupSamples samples.
  while (setup_s.size() < kSetupSamples) {
    prof::InstallGuard unprofiled(nullptr);
    RunResult spans;
    build(spec, seed, spec.hybrid, &spans);
    setup_s.push_back(spans.setup_s());
  }

  const auto t_collect = Clock::now();
  const FctSummary fct = summarize_fct(r0);
  const double collect_s = seconds_since(t_collect);

  // --- output checks ------------------------------------------------------
  if (unfinished > 0) {
    failures.push_back(std::to_string(unfinished) +
                       " jobs unfinished at the simulated deadline");
  }
  Recovery rec;
  if (spec.fail_at > 0) {
    rec = measure_recovery(spec, r0);
    const Counters& c = r0.c;
    if (c.fault.events_applied != static_cast<int>(c.fault_plan_size)) {
      failures.push_back("fault events applied " +
                         std::to_string(c.fault.events_applied) + " of " +
                         std::to_string(c.fault_plan_size));
    }
    if (c.fault.events_failed != 0) {
      failures.push_back("fault events failed to resolve: " +
                         std::to_string(c.fault.events_failed));
    }
    if (c.evictions == 0) failures.push_back("no path-health eviction");
    if (r0.last_arrival <= spec.restore_at) {
      failures.push_back("traffic ends before the link returns");
    }
  }
  if (spec.hybrid && r0.c.hyb.promotions == 0) {
    failures.push_back("hybrid engine promoted no flow");
  }
  if (fct.mice_tail.beyond < 10) {
    failures.push_back("fewer than 10 mice beyond the tail percentile");
  }

  // Fidelity of the hybrid run against its packet-exact reference.
  Reference ref;
  double err_avg = 0, err_p50 = 0, err_tail = 0;
  if (spec.hybrid) {
    std::string error;
    if (!load_reference(args.reference, spec, seed, &ref, &error)) {
      std::fprintf(stderr, "refusing to compute *_err metrics: %s\n",
                   error.c_str());
      return 3;
    }
    const FctSummary fid =
        ref.seed == seed
            ? fct
            : summarize_fct(run_once(spec, ref.seed, true, nullptr));
    if (fid.mice_tail.p != ref.mice_tail_p) {
      std::fprintf(stderr, "refusing to compute *_err metrics: tail "
                   "percentile p%.0f differs from the reference's p%.0f\n",
                   fid.mice_tail.p, ref.mice_tail_p);
      return 3;
    }
    err_avg = std::fabs(ratio(fid.avg_ms, ref.avg_ms) - 1.0);
    err_p50 = std::fabs(ratio(fid.mice_p50.value_ms, ref.mice_p50_ms) - 1.0);
    err_tail = std::fabs(ratio(fid.mice_tail.value_ms, ref.mice_tail_ms) - 1.0);
  }

  const bool correct = failures.empty();
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  // A run that failed a check counts every job it attempted as failed.
  const std::uint64_t failed = correct ? unfinished : attempted;
  const double done_frac = ratio(static_cast<double>(attempted - failed),
                                 static_cast<double>(attempted));

  std::printf("runs: %d (%zu scenarios%s) in %.1f s; simulated output "
              "digest %016" PRIx64 " identical across repeats: %s\n",
              reps, jobs_per_s.size(),
              args.trace == 1 ? ", each untraced and traced" : "",
              seconds_since(t_start), r0.digest, identical ? "yes" : "no");

  const double peak_rss = prof::peak_rss_mb();
  // The end-to-end set every workload reports. Simulated results (FCTs,
  // recovery, hybrid fidelity) vary by seed far beyond any regression bound,
  // so they are printed here and reported as per-layer values instead.
  const std::vector<Metric> e2e = {
      {"jobs_per_s", median(jobs_per_s), "1/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"jobs_done_frac", done_frac, "frac"},
  };
  std::vector<Metric> simulated = {
      {"jobs_failed_frac", 1.0 - done_frac, "frac"},
      {"fct_avg_ms", fct.avg_ms, "ms"},
      {"mice_fct_p50_ms", fct.mice_p50.value_ms, "ms"},
      {"mice_fct_p99_ms", fct.mice_tail.value_ms, "ms"},
  };
  if (spec.fail_at > 0) {
    simulated.push_back({"recovery_ms", rec.recovery_ms, "ms"});
    simulated.push_back({"fct_inflation_x", rec.inflation_x, "x"});
  }
  if (spec.hybrid) {
    simulated.push_back({"fct_avg_err", err_avg, "frac"});
    simulated.push_back({"mice_fct_p50_err", err_p50, "frac"});
    simulated.push_back({"mice_fct_p99_err", err_tail, "frac"});
  }
  std::printf("simulated results (identical for every run at this seed):\n");
  for (const Metric& m : simulated) print_metric(m);
  std::printf("  (mice_fct_p99_ms is p%.0f: the highest percentile with at "
              "least 10 of the %zu mice beyond it, here %zu)\n",
              fct.mice_tail.p, fct.mice_tail.n, fct.mice_tail.beyond);
  if (spec.fail_at > 0) {
    std::printf("  (fault plan: %d of %zu events applied, %d unresolved; %"
                PRIu64 " path-health evictions, %" PRIu64 " readmissions%s)\n",
                r0.c.fault.events_applied, r0.c.fault_plan_size,
                r0.c.fault.events_failed, r0.c.evictions, r0.c.readmissions,
                rec.never ? "; recovery never within the window, the window "
                            "is reported" : "");
  }
  if (spec.hybrid) {
    std::printf("  (errors are |hybrid / packet-exact - 1| at seed %" PRIu64
                ")\n", ref.seed);
  }

  if (args.trace == 0) {
    std::printf("jobs_per_s of each run, in order:");
    for (double v : jobs_per_s) std::printf(" %.1f", v);
    std::printf("\n");
    std::printf("end-to-end metrics:\n");
    for (const Metric& m : e2e) print_metric(m);
    std::fflush(stdout);
    print_result(correct, attempted, failed, e2e);
    return 0;
  }

  // --- per-layer metrics (traced run of the --seed scenario) ---------------
  const prof::Profiler& P = *profile;
  const double rt_ns = rt.run_s() * 1e9;
  auto self_frac = [&](std::initializer_list<prof::ScopeId> ids) {
    double ns = 0;
    for (prof::ScopeId id : ids) ns += static_cast<double>(P.stat(id).self_ns);
    return ratio(ns, rt_ns);
  };
  double covered = 0;
  for (int id = 0; id < prof::kScopeCount; ++id) {
    covered +=
        static_cast<double>(P.stat(static_cast<prof::ScopeId>(id)).self_ns);
  }
  const Counters& c = rt.c;
  const double jobs = static_cast<double>(rt.jobs_done);
  const double bytes = static_cast<double>(rt.bytes_offered);
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::vector<Metric> layers = {
      {"sim.run_s", rt.run_s(), "s"},
      {"sim.events", n(c.events), "count"},
      {"sim.events_per_job", ratio(n(c.events), jobs), "count"},
      {"sim.ns_per_event", ratio(rt_ns, n(c.events)), "ns"},
      {"sim.queue_hwm", n(c.queue_hwm), "count"},
      {"sim.dispatch_self_frac", self_frac({prof::kDispatch}), "frac"},
      {"net.link_tx_per_job", ratio(n(c.link_tx), jobs), "count"},
      {"net.switch_forwarded", n(c.switch_forwarded), "count"},
      {"net.drops_overflow", n(c.drops_overflow), "count"},
      {"net.drops_down", n(c.drops_down), "count"},
      {"net.drops_fault", n(c.drops_fault), "count"},
      {"net.ecn_marks", n(c.ecn_marks), "count"},
      {"net.pool_allocs_per_pkt",
       ratio(n(c.pool_allocated), n(c.pool_allocated + c.pool_reused)),
       "frac"},
      {"net.link_self_frac", self_frac({prof::kLinkTx, prof::kLinkDeliver}),
       "frac"},
      {"net.switch_self_frac", self_frac({prof::kSwitchForward}), "frac"},
      {"overlay.encapped", n(c.encapped), "count"},
      {"overlay.feedback_received", n(c.feedback_received), "count"},
      {"overlay.ce_intercepted", n(c.ce_intercepted), "count"},
      {"overlay.discovery_s", rt.discovery_call_s + rt.discovery_run_s, "s"},
      {"overlay.keepalives_sent", n(c.keepalives_sent), "count"},
      {"overlay.evictions", n(c.evictions), "count"},
      {"overlay.readmissions", n(c.readmissions), "count"},
      {"overlay.self_frac", self_frac({prof::kHypervisor, prof::kDiscovery}),
       "frac"},
      {"lb.decisions", n(P.stat(prof::kPolicy).count), "count"},
      {"lb.flowlet_probe_avg",
       ratio(n(c.flowlet_probe_sum), n(c.flowlet_entries)), "probes"},
      {"lb.self_frac", self_frac({prof::kPolicy}), "frac"},
      {"transport.packets_sent", n(c.tcp.packets_sent), "count"},
      {"transport.timeouts", n(c.tcp.timeouts), "count"},
      {"transport.fast_retransmits", n(c.tcp.fast_retransmits), "count"},
      {"transport.ecn_reductions", n(c.tcp.ecn_reductions), "count"},
      {"transport.evict_repins", n(c.evict_repins), "count"},
      {"transport.goodput_frac",
       ratio(n(c.tcp.bytes_acked), n(c.tcp.bytes_sent)), "frac"},
      {"transport.self_frac", self_frac({prof::kTransport}), "frac"},
      {"workload.jobs_total", n(rt.jobs_total), "count"},
      {"workload.bytes_offered", bytes, "bytes"},
      {"workload.backlog_growth", fct.backlog_growth, "x"},
      {"workload.self_frac", self_frac({prof::kWorkload}), "frac"},
      {"hybrid.promotions", n(c.hyb.promotions), "count"},
      {"hybrid.demotions_tail", n(c.hyb.demotions_tail), "count"},
      {"hybrid.demotions_loss", n(c.hyb.demotions_loss), "count"},
      {"hybrid.demotions_link", n(c.hyb.demotions_link), "count"},
      {"hybrid.demotions_degrade", n(c.hyb.demotions_degrade), "count"},
      {"hybrid.solves", n(c.hyb.solves), "count"},
      {"hybrid.trace_retries", n(c.hyb.trace_retries), "count"},
      {"hybrid.fluid_byte_frac", ratio(n(c.hyb.fluid_bytes), bytes), "frac"},
      {"hybrid.ns_per_solve",
       ratio(n(P.stat(prof::kHybrid).total_ns), n(c.hyb.solves)), "ns"},
      {"hybrid.self_frac", self_frac({prof::kHybrid}), "frac"},
      {"hybrid.fct_avg_err", err_avg, "frac"},
      {"hybrid.mice_fct_p50_err", err_p50, "frac"},
      {"hybrid.mice_fct_p99_err", err_tail, "frac"},
      {"fault.events_applied", n(c.fault.events_applied), "count"},
      {"fault.events_failed", n(c.fault.events_failed), "count"},
      {"fault.route_recomputes", n(c.fault.route_recomputes), "count"},
      {"fault.recovery_ms", rec.recovery_ms, "ms"},
      {"fault.fct_inflation_x", rec.inflation_x, "x"},
      {"harness.build_s", rt.build_s, "s"},
      {"stats.collect_s", collect_s, "s"},
      {"stats.fct_avg_ms", fct.avg_ms, "ms"},
      {"stats.mice_fct_p50_ms", fct.mice_p50.value_ms, "ms"},
      {"stats.mice_fct_p99_ms", fct.mice_tail.value_ms, "ms"},
      {"stats.mice_fct_p99_pct", fct.mice_tail.p, "%"},
      {"stats.mice_samples", n(fct.mice_tail.n), "count"},
      {"prof.overhead_ratio", median(overhead), "x"},
      {"prof.coverage", ratio(covered, rt_ns), "frac"},
  };
  std::printf("per-layer metrics (traced run):\n");
  for (const Metric& m : layers) print_metric(m);
  std::fflush(stdout);
  print_result(correct, attempted, failed, layers);
  return 0;
}
