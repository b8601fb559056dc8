// perfbench — the repository's benchmark binary (run it through run.py).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--git-rev REV] [--spans PATH]
//
// Prints a metadata line, one "metric" line per metric with its unit, and as
// its last line one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones, measured with nothing
// attached; with --trace 1 the same workload runs once bare and once with
// the decorators and sinks attached, and the metrics are the per-layer ones
// plus the tracing overhead between the two. Exits 1 when a check fails.
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "live.hpp"
#include "simcheck.hpp"
#include "stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"throughput_mps", "multicasts/s"}, {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},           {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Every workload prints every per-layer metric; a layer the workload
// bypasses reads 0.
const Metric kPerLayer[] = {
    {"net.frames_per_mc", "count"},       {"net.bytes_per_mc", "B"},
    {"net.send_ns", "ns"},                {"net.poll_ns", "ns"},
    {"net.pump_ns", "ns"},                {"net.send_refused_frac", "ratio"},
    {"net.poll_hit_frac", "ratio"},       {"net.transport_frac", "ratio"},
    {"net.wire_wait_p50_us", "us"},       {"net.wire_wait_p99_us", "us"},
    {"net.steps_per_mc", "count"},        {"net.idle_step_frac", "ratio"},
    {"net.loop_frac", "ratio"},           {"net.outbox_hwm", "count"},
    {"net.backoff_cap_hits", "count"},    {"net.setup_ms", "ms"},
    {"client.late_p50_us", "us"},         {"client.late_p999_us", "us"},
    {"objects.busy_frac", "ratio"},       {"objects.step_ns", "ns"},
    {"objects.idle_step_ns", "ns"},       {"objects.submit_ns", "ns"},
    {"objects.step_p9999_us", "us"},      {"objects.rounds_per_instance", "count"},
    {"objects.round_p50_us", "us"},       {"objects.ops_per_instance", "count"},
    {"objects.sends_per_mc", "count"},    {"fd.queries_per_mc", "count"},
    {"amcast.build_us", "us"},            {"amcast.run_us", "us"},
    {"amcast.ns_per_step", "ns"},         {"amcast.spec_us", "us"},
    {"amcast.steps_per_run", "count"},    {"amcast.deliver_latency_steps", "steps"},
    {"sim.run_us", "us"},                 {"sim.ns_per_event", "ns"},
    {"sim.monitor_ns_per_event", "ns"},   {"sim.events_per_run", "count"},
    {"sim.null_step_frac", "ratio"},      {"sim.msgs_per_delivery", "count"},
    {"fd.queries_per_delivery", "count"}, {"sim.genuineness_ledger", "count"},
    {"groups.setup_ms", "ms"},            {"trace.spans_dropped", "count"},
    {"trace.overhead_frac", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string git_rev = "unknown";
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "inproc_saturate|tcp_paced|sim_checked --seed N --seconds S "
               "--trace 0|1 [--git-rev REV] [--spans PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 600)
        usage("--seconds takes a number in (0, 600]");
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      a.trace = v[0] - '0';
    } else if (k == "--git-rev") {
      a.git_rev = v;
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (a.workload != "inproc_saturate" && a.workload != "tcp_paced" &&
      a.workload != "sim_checked")
    usage("unknown or missing --workload");
  return a;
}

int cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

// Guest-wide (steal, total) CPU time in clock ticks from /proc/stat. Steal is
// time the hypervisor ran something else on this machine's vCPUs; busy-
// polling workloads lose throughput in proportion to it.
std::pair<std::uint64_t, std::uint64_t> cpu_steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return {0, 0};
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return {0, 0};
  std::uint64_t total = 0;
  for (unsigned long long x : v) total += x;
  return {v[7], total};
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// What one run of a workload measured, in the shape every workload shares.
struct Measured {
  Outcome outcome;
  std::string error;
  double throughput_mps = 0;
  std::vector<std::uint64_t> latency_ns;
  std::vector<std::uint64_t> lateness_ns;
  std::vector<double> setup_s;
  double headline = 0;  // the workload's primary figure, for the overhead
  bool headline_higher_better = true;
  std::map<std::string, double> layers;
  std::vector<std::pair<std::string, std::string>> notes;  // extra lines
};

LiveConfig inproc_config(const Args& a) {
  LiveConfig c;
  c.groups = 2;
  c.ops_per_group = 500000;
  c.seconds = a.seconds;
  c.seed = a.seed;
  return c;
}

LiveConfig tcp_config(const Args& a) {
  LiveConfig c;
  c.tcp = true;
  c.groups = 1;
  c.rate = 50000;
  c.seconds = a.seconds;
  c.seed = a.seed;
  return c;
}

Measured measure(const Args& a, bool traced) {
  Measured m;
  if (a.workload == "sim_checked") {
    SimConfig c;
    c.seconds = a.seconds;
    c.workers = cpu_count();
    c.seed = a.seed;
    c.traced = traced;
    if (traced) c.spans_path = a.spans;
    SimResult r = run_sim(c);
    m.outcome = r.outcome;
    m.error = r.error;
    m.throughput_mps = r.multicasts_per_s;
    m.latency_ns = std::move(r.run_ns);
    m.setup_s = std::move(r.setup_s);
    m.headline = r.runs_per_s;
    m.layers = std::move(r.layers);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f", r.runs_per_s);
    m.notes.emplace_back("checked_runs_per_s", std::string(buf) + " runs/s");
    return m;
  }
  LiveConfig c = a.workload == "tcp_paced" ? tcp_config(a) : inproc_config(a);
  c.traced = traced;
  if (traced) c.spans_path = a.spans;
  LiveResult r = run_live(c);
  m.outcome = r.outcome;
  m.error = r.error;
  m.throughput_mps = r.throughput_mps;
  m.latency_ns = std::move(r.latency_ns);
  m.lateness_ns = std::move(r.lateness_ns);
  m.setup_s = std::move(r.setup_s);
  m.layers = std::move(r.layers);
  if (c.rate > 0) {
    std::vector<std::uint64_t> lat = m.latency_ns;
    m.headline = static_cast<double>(quantile(lat, 0.5));
    m.headline_higher_better = false;
  } else {
    m.headline = m.throughput_mps;
  }
  std::string batches;
  for (double b : r.batch_mps) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.0f", batches.empty() ? "" : ",", b);
    batches += buf;
  }
  m.notes.emplace_back("batch_mps", batches + " multicasts/s");
  return m;
}

double us(std::uint64_t ns) {
  return ns == kMissed ? 1e18 : static_cast<double>(ns) / 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
#ifdef GAM_NO_METRICS
  const char* metrics_flag = "OFF";
#else
  const char* metrics_flag = "ON";
#endif
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"traced\": %s, \"nproc\": %d, \"git_rev\": \"%s\", \"build_type\": "
      "\"%s\", \"GAM_METRICS\": \"%s\"}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? "true" : "false", cpu_count(), a.git_rev.c_str(),
      PERFBENCH_BUILD_TYPE, metrics_flag);
  std::fflush(stdout);

  const auto steal0 = cpu_steal_ticks();
  Measured bare = measure(a, false);
  const auto steal1 = cpu_steal_ticks();
  Measured traced;
  Outcome outcome = bare.outcome;
  std::string error = bare.error;
  if (a.trace) {
    traced = measure(a, true);
    outcome.add(traced.outcome);
    if (error.empty()) error = traced.error;
  }

  std::map<std::string, double> values;
  if (!a.trace) {
    std::vector<std::uint64_t> lat = bare.latency_ns;
    values["throughput_mps"] = bare.throughput_mps;
    values["latency_p50_us"] = us(quantile(lat, 0.5));
    values["latency_p90_us"] = us(quantile(lat, 0.9));
    values["setup_s"] = median(bare.setup_s);
    values["peak_rss_mb"] = peak_rss_mb();
  } else {
    values = traced.layers;
    std::vector<std::uint64_t> late = traced.lateness_ns;
    values["client.late_p50_us"] = us(quantile(late, 0.5));
    values["client.late_p999_us"] = us(quantile(late, 0.999));
    // Relative cost of tracing on the workload's headline figure
    // (throughput, or p50 latency on the open loop): positive = slower.
    const double b = bare.headline, t = traced.headline;
    values["trace.overhead_frac"] =
        b > 0 ? (bare.headline_higher_better ? (b - t) / b : (t - b) / b) : 0;
  }

  const Metric* list = a.trace ? kPerLayer : kEndToEnd;
  const std::size_t count =
      a.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (const auto& [k, v] : bare.notes)
    std::printf("note %s = %s\n", k.c_str(), v.c_str());
  if (steal1.second > steal0.second)
    std::printf("note cpu_steal_frac = %.4f ratio (hypervisor steal during the "
                "bare run)\n",
                static_cast<double>(steal1.first - steal0.first) /
                    static_cast<double>(steal1.second - steal0.second));
  std::printf("metric failed_frac = %.6f ratio (%llu of %llu)\n",
              outcome.failed_frac(),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  // p999 is printed but not gated: on tcp_paced it is set by the one chain of
  // rehash stalls at the end of the window and moves by a quarter between
  // runs of the same code.
  {
    std::vector<std::uint64_t> lat = bare.latency_ns;
    std::printf("metric latency_p999_us = %.6g us (%zu samples)\n",
                us(quantile(lat, 0.999)), lat.size());
  }
  for (std::size_t i = 0; i < count; ++i)
    std::printf("metric %s = %.6g %s\n", list[i].name, values[list[i].name],
                list[i].unit);
  if (!error.empty()) std::printf("CHECK FAILED: %s\n", error.c_str());

  std::string json = "{\"correct\": ";
  json += outcome.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", list[i].name, values[list[i].name],
                  list[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return outcome.correct() ? 0 : 1;
}
