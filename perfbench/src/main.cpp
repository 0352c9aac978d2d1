// perf_bench: runs one benchmark workload and prints its metrics.
//
//   perf_bench --workload <ip_campaign|cheshire_fork|grid_knee|
//                          dispatch_campaign>
//              --seed <n> --seconds <s> --trace <0|1>
//              --worker <campaign_worker binary> --out-dir <dir>
//
// Every metric is printed as "name = value unit"; the last line of
// standard output is one JSON object {correct, attempted, failed,
// metrics}. With --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones (perfbench/README.md defines each).
// Exits 1 when a correctness check fails, 2 on a usage or run error.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <sys/resource.h>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "sim/jsonfmt.hpp"
#include "sim/logger.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double peak_rss_mb(bool children) {
  rusage ru{};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return campaign::derive_trial_seed(seed ^ 0x5EEDBE4C4ull, stream);
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perf_bench: %s\nusage: perf_bench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> --worker <path> --out-dir "
               "<dir>\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      a.trace = val == "1";
      have_trace = true;
    } else if (key == "--worker") {
      a.worker_bin = val;
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty() || !have_trace || a.out_dir.empty() ||
      !(a.seconds > 0.0)) {
    usage("--workload, --seconds, --trace and --out-dir are required");
  }
  return a;
}

void print_metric(const perfbench::Metric& m) {
  std::printf("%-34s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // The in-process engine runs with logging off; workers log to a file.
  sim::global_log_level() = sim::LogLevel::kOff;
  const perfbench::Args args = parse(argc, argv);

  perfbench::Result res;
  try {
    if (args.workload == "ip_campaign") {
      res = perfbench::run_ip_campaign(args);
    } else if (args.workload == "cheshire_fork") {
      res = perfbench::run_cheshire_fork(args);
    } else if (args.workload == "dispatch_campaign") {
      res = perfbench::run_dispatch_campaign(args);
    } else if (args.workload == "grid_knee") {
      res = perfbench::run_grid_knee(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_bench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 2;
  }

  std::printf("workload %s, seed %" PRIu64 ", %s\n", args.workload.c_str(),
              args.seed, args.trace ? "traced (per-layer metrics)"
                                    : "untraced (end-to-end metrics)");
  for (const perfbench::Metric& m : res.metrics) print_metric(m);
  for (const perfbench::Metric& m : res.info) print_metric(m);
  for (const std::string& e : res.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }

  const bool correct = res.errors.empty() && res.attempted > 0;
  std::string json;
  sim::jsonfmt::append_f(json,
                         "{\"correct\": %s, \"attempted\": %" PRIu64
                         ", \"failed\": %" PRIu64 ", \"metrics\": {",
                         correct ? "true" : "false", res.attempted,
                         res.failed);
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const perfbench::Metric& m = res.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    json += i == 0 ? "\"" : ", \"";
    json += m.name;
    sim::jsonfmt::append_f(json, "\": {\"value\": %.17g, \"unit\": \"%s\"}",
                           v, m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
