// fleetbench — runs the proxy fleet on one benchmark workload and prints
// one JSON record per line for every measured run.  run.py builds this
// program, checks the records and reduces them to the benchmark's
// metrics (README.md explains the workloads and the metrics).
//
//   fleetbench --workload fleet-dense --seed 1 --seconds 20 --trace 0
//              [--size full|tiny]
//
// Untraced (--trace 0): the workload is set up and run to its horizon
// as many times as fit in --seconds, at least three; every run prints its
// set-up time, its run time and its simulated counters.  Extra set-ups
// without a run give setup_s more samples.
//
// Traced (--trace 1): single-simulator runs are driven event by event
// with Simulator::next_event_info() and Simulator::step(), timing both
// calls, and every step is attributed to a layer from the outside:
//   * an event scheduled under kReplayTag is origin trace replay (the tag
//     is in force while the traces are attached, and a replay chain
//     inherits it);
//   * otherwise the first public counter the step moved names it — client
//     requests issued (a read), origin requests served (a poll), relays
//     delivered (a relay delivery) — and a step that moved none is idle.
// Every traced run is paired with an untraced run of the same inputs, so
// the tracing overhead is measured.  fleet-dense's traced run first
// records the ShardedFleet thread-scaling table on the same 8 x 1024
// fleet run to a longer horizon, and a single-simulator run of those
// inputs that every thread count must equal.  Only library functions
// that are public are called.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/client_traffic.h"
#include "consistency/limd.h"
#include "fleet/faults.h"
#include "fleet/proxy_fleet.h"
#include "fleet/sharded_fleet.h"
#include "metrics/accounting.h"
#include "metrics/fidelity.h"
#include "origin/origin_server.h"
#include "sim/simulator.h"
#include "trace/diurnal.h"
#include "trace/update_trace.h"

namespace {

using namespace broadway;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- inputs ----------------------------------------------------------------

// Schedule tag in force while traces are attached.  Proxy ids (the tags
// ProxyFleet::start hands out) never come near it.
constexpr std::uint32_t kReplayTag = 0xFFFFFFF0u;

// LIMD paper_defaults(Δ) and the Δ fidelity is evaluated against.
constexpr Duration kDelta = 600.0;

// Request rate per proxy of the read-only clients on fleet-dense and
// the scaling table.  With demand fill and read boost off a read changes no
// simulated state, so these clients only observe what users would see;
// they pick objects uniformly, so their stale rate samples the whole
// fleet instead of the few objects a Zipf law favours.
constexpr double kObserverRate = 2.0;

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

// Independent sub-seed `stream` of the workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return mix64(seed ^ mix64(stream + 0x9E3779B97F4A7C15ULL));
}

enum Stream : std::uint64_t {
  kEngineStream = 1,
  kClientStream = 2,
  kFaultStream = 3,
  kTraceStream = 1000,  // + object index
};

// splitmix64: the benchmark's own generator, so the traces depend only on
// the seed, never on the library's RNG.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  double uniform(double lo, double hi) {
    state_ += 0x9E3779B97F4A7C15ULL;
    const double u =
        static_cast<double>(mix64(state_) >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
  }

 private:
  std::uint64_t state_;
};

struct Workload {
  std::string name;
  std::size_t proxies = 0;
  std::size_t objects = 0;
  Duration horizon = 0.0;
  bool faults = false;   // client-faults: busy clients plus the fault layer
};

// Irregular update streams shaped like bench_micro's make_sweep_traces:
// gaps uniform in [120, 600 + 10 * (i mod 128)) s, so LIMD TTRs spread.
std::vector<UpdateTrace> make_traces(std::size_t objects, Duration horizon,
                                     std::uint64_t seed) {
  std::vector<UpdateTrace> traces;
  traces.reserve(objects);
  for (std::size_t i = 0; i < objects; ++i) {
    SplitMix rng(derive(seed, kTraceStream + i));
    std::vector<TimePoint> updates;
    TimePoint t = 0.0;
    for (;;) {
      t += rng.uniform(120.0, 600.0 + 10.0 * static_cast<double>(i % 128));
      if (t >= horizon) break;
      updates.push_back(t);
    }
    traces.emplace_back("/object/" + std::to_string(i), std::move(updates),
                        horizon);
  }
  return traces;
}

FleetConfig make_fleet_config(const Workload& w, std::uint64_t seed) {
  FleetConfig config;
  config.proxies = w.proxies;
  config.cooperative_push = true;
  config.relay_latency = 1.0;
  config.engine.seed = derive(seed, kEngineStream);

  ClientTrafficConfig clients;
  clients.seed = derive(seed, kClientStream);
  clients.zipf_exponent = 0.0;
  clients.request_rate = kObserverRate;
  if (w.faults) {
    clients.zipf_exponent = 0.9;
    clients.request_rate = 20.0;
    clients.session_locality = 0.3;
    clients.session_objects = 4;
    clients.profile = DiurnalProfile::newsroom();
    clients.start_hour = 8.0;

    config.engine.demand_fill = true;
    config.engine.loss_probability = 0.25;
    config.engine.retry_delay = 600.0;

    FaultSchedule& faults = config.faults;
    faults.seed = derive(seed, kFaultStream);
    faults.relay_loss = 0.10;
    faults.relay_jitter_max = 0.4;
    faults.retry_backoff_base = 1.0;
    faults.retry_backoff_cap = 8.0;
    faults.relay_retry_limit = 4;
    // Staggered outages on the even proxies: 2500 s windows starting at
    // 20%, 35%, 50%, ... of a 20 000 s horizon (scaled with it).
    const Duration window = 0.125 * w.horizon;
    for (std::size_t p = 0; p < w.proxies; p += 2) {
      const TimePoint start =
          w.horizon * (0.2 + 0.075 * static_cast<double>(p));
      if (start + window >= w.horizon) break;
      faults.crashes.push_back({p, {{start, start + window}}});
    }
  }
  config.client_traffic = clients;
  return config;
}

struct Inputs {
  Workload workload;
  std::shared_ptr<const std::vector<UpdateTrace>> traces;
  FleetConfig fleet;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  in.workload = w;
  in.traces = std::make_shared<const std::vector<UpdateTrace>>(
      make_traces(w.objects, w.horizon, seed));
  in.fleet = make_fleet_config(w, seed);
  return in;
}

std::unique_ptr<RefreshPolicy> make_limd() {
  return std::make_unique<LimdPolicy>(
      LimdPolicy::Config::paper_defaults(kDelta));
}

OriginServer::Config origin_config() {
  OriginServer::Config config;
  config.render_bodies = false;  // nothing reads payloads
  return config;
}

// ---- records ---------------------------------------------------------------

// Ordered (name, value) pairs: simulated counters and measured times.
using Fields = std::vector<std::pair<std::string, double>>;

struct Env {
  std::string workload;
  std::string size;
  std::uint64_t seed = 0;
  std::string backend;
  std::size_t nproc = 1;
  std::string compiler;
};
Env g_env;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

// One output line: the record kind, the environment, then `fields`.
void emit(const char* kind, std::size_t threads, const Fields& fields) {
  std::string line = "{\"record\": \"" + std::string(kind) + "\"";
  line += ", \"workload\": \"" + json_escape(g_env.workload) + "\"";
  line += ", \"size\": \"" + json_escape(g_env.size) + "\"";
  line += ", \"seed\": " + std::to_string(g_env.seed);
  line += ", \"backend\": \"" + json_escape(g_env.backend) + "\"";
  line += ", \"nproc\": " + std::to_string(g_env.nproc);
  line += ", \"threads\": " + std::to_string(threads);
  line += ", \"compiler\": \"" + json_escape(g_env.compiler) + "\"";
  for (const auto& [name, value] : fields) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    line += ", \"" + json_escape(name) + "\": " + buf;
  }
  line += "}\n";
  std::fputs(line.c_str(), stdout);
  std::fflush(stdout);
}

void append(Fields& to, const Fields& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// ---- simulated outcome -----------------------------------------------------

// What the fleet did, from its public accessors.  ProxyFleet and
// ShardedFleet share this surface, and these fields are equal between a
// single-simulator run and a sharded run of the same inputs.
template <typename Fleet>
Fields fleet_outcome(const Fleet& fleet, const Inputs& in) {
  const Duration horizon = in.workload.horizon;
  PollCauseCounts causes;
  double fidelity_sum = 0.0;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    const PollLog& log = fleet.proxy(p).poll_log();
    causes.merge(count_by_cause(log));
    for (const UpdateTrace& trace : *in.traces) {
      const TemporalFidelityReport report = evaluate_temporal_fidelity(
          trace, successful_polls(log, trace.name()), kDelta,
          std::min(trace.duration(), horizon));
      fidelity_sum += report.fidelity_time();
    }
  }
  const FleetOriginLoad load = fleet.origin_load();
  const ClientMetrics clients = fleet.merged_client_metrics();
  const double pairs = static_cast<double>(fleet.size()) *
                       static_cast<double>(in.traces->size());
  const auto d = [](std::size_t v) { return static_cast<double>(v); };
  return {
      {"origin_polls", d(fleet.origin_polls())},
      {"policy_polls", d(causes.policy_polls())},  // recounted from records
      {"demand_fills", d(load.demand_fills)},
      {"failed_polls", d(load.failed)},
      {"relays_sent", d(fleet.relays_sent())},
      {"relays_delivered", d(fleet.relays_delivered())},
      {"relays_in_flight", d(fleet.relays_in_flight())},
      {"relays_applied", d(fleet.relays_applied())},
      {"relays_lost", d(fleet.relays_lost())},
      {"relays_retried", d(fleet.relays_retried())},
      {"relays_dropped_dark", d(fleet.relays_dropped_dark())},
      {"client_requests", d(clients.requests)},
      {"client_hits", d(clients.hits)},
      {"client_misses", d(clients.misses)},
      {"client_stale", d(clients.stale)},
      {"client_fills", d(clients.demand_fills)},
      {"client_dark_reads", d(clients.dark_reads)},
      {"client_hit_rate", clients.hit_rate()},
      {"client_stale_rate", clients.stale_rate()},
      {"fidelity_mean", fidelity_sum / pairs},
  };
}

// Origin-side totals over a set of distinct replicas.
Fields origin_outcome(const std::vector<const OriginServer*>& replicas,
                      const std::vector<UpdateTrace>& traces) {
  double requests = 0.0, ok = 0.0, updates = 0.0;
  for (const OriginServer* origin : replicas) {
    requests += static_cast<double>(origin->requests_served());
    ok += static_cast<double>(origin->responses_200());
    for (const UpdateTrace& trace : traces) {
      updates += static_cast<double>(origin->store().at(trace.name()).version());
    }
  }
  return {{"origin_requests", requests},
          {"origin_200", ok},
          {"replica_updates", updates},
          {"replicas", static_cast<double>(replicas.size())}};
}

// ---- the two fleet shapes --------------------------------------------------

// One simulator, one origin, one ProxyFleet.  Constructing it is the
// set-up the benchmark times.
struct SingleFleet {
  Simulator sim;
  OriginServer origin{sim, origin_config()};
  std::unique_ptr<ProxyFleet> fleet;

  explicit SingleFleet(const Inputs& in) {
    sim.set_schedule_tag(kReplayTag);
    for (const UpdateTrace& trace : *in.traces) {
      origin.attach_update_trace(trace.name(), trace);
    }
    sim.set_schedule_tag(0);
    fleet = std::make_unique<ProxyFleet>(sim, origin, in.fleet);
    for (const UpdateTrace& trace : *in.traces) {
      fleet->add_temporal_object_everywhere(trace.name(), make_limd);
    }
    fleet->start();
  }

  void run(Duration horizon) { sim.run_until(horizon); }

  Fields outcome(const Inputs& in) const {
    Fields fields = fleet_outcome(*fleet, in);
    append(fields, origin_outcome({&origin}, *in.traces));
    fields.emplace_back("events", static_cast<double>(sim.executed()));
    return fields;
  }
};

// The same fleet on ShardedFleet (whole-proxy shards, adaptive windows).
// Only the traced run's scaling table builds one.
struct ShardedRun {
  std::unique_ptr<ShardedFleet> fleet;

  ShardedRun(const Inputs& in, std::size_t threads) {
    ShardedFleetConfig config;
    config.fleet = in.fleet;
    config.threads = threads;
    config.origin = origin_config();
    config.origin_setup = [traces = in.traces](OriginServer& origin) {
      for (const UpdateTrace& trace : *traces) {
        origin.attach_update_trace(trace.name(), trace);
      }
    };
    fleet = std::make_unique<ShardedFleet>(std::move(config));
    for (const UpdateTrace& trace : *in.traces) {
      fleet->add_temporal_object_everywhere(trace.name(), make_limd);
    }
    fleet->start();
  }

  void run(Duration horizon) { fleet->run_until(horizon); }

  Fields outcome(const Inputs& in) const {
    Fields fields = fleet_outcome(*fleet, in);
    std::vector<const OriginServer*> replicas;
    for (std::size_t p = 0; p < fleet->size(); ++p) {
      const OriginServer* origin = &fleet->origin_for_proxy(p);
      if (std::find(replicas.begin(), replicas.end(), origin) ==
          replicas.end()) {
        replicas.push_back(origin);
      }
    }
    append(fields, origin_outcome(replicas, *in.traces));
    fields.emplace_back("shards", static_cast<double>(fleet->shard_count()));
    return fields;
  }
};

// ---- untraced runs ---------------------------------------------------------

constexpr int kSetupOnlySamples = 40;
constexpr int kMinRuns = 3;

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void run_untraced(const Inputs& in, double seconds) {
  const Clock::time_point begin = Clock::now();
  for (int i = 0; i < kSetupOnlySamples; ++i) {
    const Clock::time_point t0 = Clock::now();
    SingleFleet run(in);
    emit("setup", 1, {{"setup_s", seconds_between(t0, Clock::now())}});
  }
  // Start another repetition only if one as long as the last still ends
  // within --seconds, so every run measures for about --seconds.
  int runs = 0;
  double last = 0.0;
  while (runs < kMinRuns ||
         seconds_between(begin, Clock::now()) + last <= seconds) {
    const Clock::time_point t0 = Clock::now();
    SingleFleet run(in);
    const Clock::time_point t1 = Clock::now();
    run.run(in.workload.horizon);
    const Clock::time_point t2 = Clock::now();
    Fields fields = {{"setup_s", seconds_between(t0, t1)},
                     {"run_s", seconds_between(t1, t2)}};
    append(fields, run.outcome(in));
    emit("run", 1, fields);
    ++runs;
    last = seconds_between(t0, Clock::now());
  }
  emit("memory", 1, {{"peak_rss_mb", peak_rss_mb()}});
}

// ---- traced runs -----------------------------------------------------------

// Step the simulator to the horizon, attributing each step to a layer.
Fields run_stepped(SingleFleet& f, Duration horizon) {
  Simulator& sim = f.sim;
  const FleetClientTraffic& clients = f.fleet->client_traffic();
  enum Layer { kReplay, kRead, kPoll, kRelay, kIdle, kLayers };
  double time[kLayers] = {};
  double count[kLayers] = {};
  double peek_s = 0.0, events = 0.0, max_pending = 0.0, max_same = 0.0;
  double same = 0.0;
  TimePoint last_time = -1.0;

  const Clock::time_point begin = Clock::now();
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    const Simulator::NextEvent next = sim.next_event_info();
    const Clock::time_point t1 = Clock::now();
    peek_s += seconds_between(t0, t1);
    if (!next.valid || next.time > horizon) break;

    max_pending = std::max(max_pending, static_cast<double>(sim.pending()));
    same = next.time == last_time ? same + 1.0 : 1.0;
    last_time = next.time;
    max_same = std::max(max_same, same);

    const std::uint64_t reads = clients.requests_issued();
    const std::size_t served = f.origin.requests_served();
    const std::size_t delivered = f.fleet->relays_delivered();
    const Clock::time_point t2 = Clock::now();
    sim.step();
    const Clock::time_point t3 = Clock::now();

    Layer layer = kIdle;
    if (next.tag == kReplayTag) {
      layer = kReplay;
    } else if (clients.requests_issued() != reads) {
      layer = kRead;
    } else if (f.origin.requests_served() != served) {
      layer = kPoll;
    } else if (f.fleet->relays_delivered() != delivered) {
      layer = kRelay;
    }
    time[layer] += seconds_between(t2, t3);
    count[layer] += 1.0;
    events += 1.0;
  }
  const double wall = seconds_between(begin, Clock::now());
  sim.advance_clock(horizon);  // as run_until leaves it

  return {{"traced_s", wall},           {"peek_s", peek_s},
          {"steps", events},            {"max_pending", max_pending},
          {"max_same_instant", max_same},
          {"replay_s", time[kReplay]},  {"replay_steps", count[kReplay]},
          {"read_s", time[kRead]},      {"read_steps", count[kRead]},
          {"poll_s", time[kPoll]},      {"poll_steps", count[kPoll]},
          {"relay_s", time[kRelay]},    {"relay_steps", count[kRelay]},
          {"idle_s", time[kIdle]},      {"idle_steps", count[kIdle]}};
}

// An untraced single-simulator run, printed as a `kind` record.
void run_single(const Inputs& in, const char* kind) {
  SingleFleet f(in);
  const Clock::time_point t0 = Clock::now();
  f.run(in.workload.horizon);
  Fields fields = {{"run_s", seconds_between(t0, Clock::now())}};
  append(fields, f.outcome(in));
  emit(kind, 1, fields);
}

// The thread-scaling table: ShardedFleet at each thread count, then the
// single-simulator run of the same inputs that every count must equal.
void run_scaling(const Inputs& in,
                 const std::vector<std::size_t>& thread_counts) {
  for (const std::size_t threads : thread_counts) {
    ShardedRun run(in, threads);
    const Clock::time_point t0 = Clock::now();
    run.run(in.workload.horizon);
    Fields fields = {{"run_s", seconds_between(t0, Clock::now())}};
    append(fields, run.outcome(in));
    emit("scaling", threads, fields);
  }
  run_single(in, "reference");
}

// Rounds of [scaling table,] untraced run, stepped run of the same inputs.
void run_traced(const Inputs& in, const Inputs* scaling, double seconds,
                const std::vector<std::size_t>& thread_counts) {
  const Clock::time_point begin = Clock::now();
  double last = 0.0;
  do {
    const Clock::time_point round = Clock::now();
    if (scaling != nullptr) run_scaling(*scaling, thread_counts);
    run_single(in, "untraced");
    SingleFleet f(in);
    Fields fields = run_stepped(f, in.workload.horizon);
    append(fields, f.outcome(in));
    emit("traced", 1, fields);
    last = seconds_between(round, Clock::now());
  } while (seconds_between(begin, Clock::now()) + last <= seconds);
}

// ---- main ------------------------------------------------------------------

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "fleetbench: %s\nusage: fleetbench --workload "
               "fleet-dense|client-faults --seed N "
               "--seconds S --trace 0|1 [--size full|tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "fleetbench: refusing to time an unoptimised build\n");
  return 3;
#endif
  for (const char* knob : {"BROADWAY_SCHEDULER", "BROADWAY_TRACE_ATTACHMENT"}) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr, "fleetbench: refusing to run with %s set\n", knob);
      return 3;
    }
  }

  std::string workload, size = "full";
  long long seed = -1, trace = -1;
  double seconds = -1.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--size") {
      size = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value, &end, 10);
      if (*end != '\0' || seed < 0) return usage("bad --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0)) return usage("bad --seconds");
    } else if (flag == "--trace") {
      trace = std::strtoll(value, &end, 10);
      if (*end != '\0' || (trace != 0 && trace != 1)) {
        return usage("bad --trace");
      }
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return usage("flags take one value each");
  if (seed < 0 || seconds <= 0.0 || trace < 0) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (size != "full" && size != "tiny") return usage("bad --size");

  const bool tiny = size == "tiny";
  Workload w;
  w.name = workload;
  // fleet-dense stops after the first synchronised refresh round: its
  // cost is that round's same-instant burst (8192 polls, then 57 344
  // relay deliveries one relay latency later), not the horizon.  Its
  // scaling table runs the same fleet long enough for steady traffic to
  // force a window at nearly every relay latency.
  Workload scaling;  // the thread-scaling table; none while proxies == 0
  if (workload == "fleet-dense") {
    w.proxies = tiny ? 2 : 8;
    w.objects = tiny ? 16 : 1024;
    w.horizon = tiny ? 2000.0 : 1000.0;
    scaling = w;
    scaling.horizon = tiny ? 4000.0 : 20000.0;
  } else if (workload == "client-faults") {
    w.proxies = tiny ? 2 : 8;
    w.objects = tiny ? 16 : 256;
    w.horizon = tiny ? 4000.0 : 20000.0;
    w.faults = true;
  } else {
    return usage("unknown --workload");
  }

  const std::size_t nproc = online_cpus();
  const std::size_t max_threads = std::min<std::size_t>(4, nproc);
  std::vector<std::size_t> thread_counts;
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, max_threads}) {
    if (t <= max_threads &&
        std::find(thread_counts.begin(), thread_counts.end(), t) ==
            thread_counts.end()) {
      thread_counts.push_back(t);
    }
  }

  g_env.workload = workload;
  g_env.size = size;
  g_env.seed = static_cast<std::uint64_t>(seed);
  g_env.backend = Simulator().scheduler() == SchedulerBackend::kCalendar
                      ? "calendar"
                      : "heap";
  g_env.nproc = nproc;
  g_env.compiler = compiler_id();

  const Inputs in = make_inputs(w, g_env.seed);
  if (trace == 0) {
    run_untraced(in, seconds);
  } else if (scaling.proxies > 0) {
    const Inputs table = make_inputs(scaling, g_env.seed);
    run_traced(in, &table, seconds, thread_counts);
  } else {
    run_traced(in, nullptr, seconds, thread_counts);
  }
  return 0;
}
