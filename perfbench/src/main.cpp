// perfbench: runs one benchmark workload for a fixed time and prints one
// JSON object with its end-to-end metrics, per-layer metrics, correctness
// verdict, simulated-statistic fingerprint, and trace attribution.
//
//   perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--tiny] [--teeth CASE]
//
// Untraced (--trace 0): every iteration runs with the tracer off, and the
// end-to-end metrics are medians over the iterations (latency percentiles
// pool every operation of the run), except setup_s: the interquartile mean
// of the run's set-ups.
//
// Traced (--trace 1): iterations alternate untraced / traced. Per-layer
// metrics are medians over the traced iterations; the untraced ones give
// the tracing overhead. The attribution check requires the layer spans of
// each traced iteration to cover its setup_s + run_s up to
// kAttributionTolerance; the rest is reported as unattributed.
//
// --teeth CASE runs a deliberately broken tiny scenario whose gate must
// fail: e1-budget (step budget below steps-to-I), verify-no-fixdepth
// (GuardMutation::kNoFixdepth), svc-overlap (the lease-overlap checker fed
// a synthetic overlapping trace).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "util/json_writer.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

/// Largest share of setup_s + run_s that may lie outside every layer span.
constexpr double kAttributionTolerance = 0.02;

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Mean of the middle half of the samples: as robust to a stray slow
/// sample as the median, but it moves smoothly where the samples fall in
/// clusters (svc-ring set-ups take whole poll intervals) and a median would
/// jump from one cluster to the next.
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// Peak resident set size of this process, in MB (VmHWM).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

struct Args {
  std::string workload;
  Params params;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = next();
    } else if (flag == "--seed") {
      a.params.seed = std::stoull(next());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(next());
    } else if (flag == "--trace") {
      a.trace = next() != "0";
    } else if (flag == "--tiny") {
      a.params.tiny = true;
    } else if (flag == "--teeth") {
      a.params.teeth = next();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "e1-ring") return make_e1_ring(a.params);
  if (a.workload == "verify-ring4") return make_verify_ring(a.params);
  if (a.workload == "svc-ring") return make_svc_ring(a.params);
  throw std::invalid_argument("unknown workload " + a.workload);
}

/// Derived per-layer ratios whose inputs are span self times.
void derive_ratios(std::map<std::string, double>& m) {
  const auto ratio = [&](const char* out, const char* num, const char* den,
                         double scale) {
    const auto n = m.find(num);
    const auto d = m.find(den);
    if (n != m.end() && d != m.end() && d->second > 0) {
      m[out] = n->second * scale / d->second;
    }
  };
  ratio("core.step_ns", "core.step_s", "core.steps", 1e9);
  ratio("analysis.oracle_ns_per_process", "analysis.oracle_s",
        "analysis.oracle_processes", 1e9);
  ratio("verify.states_per_s", "verify.states", "verify.explore_s", 1.0);
}

int run(const Args& args) {
  auto workload = make_workload(args);
  Tracer plain(false);
  Tracer traced(true);

  // The first iteration warms the allocator and caches: it is gated like
  // the others but is not a timing sample.
  const int min_iterations = args.trace ? 5 : 4;
  const double deadline = now_s() + args.seconds;

  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup, runs, ops_per_s, op_ms;
  std::vector<double> plain_total, traced_total;
  std::map<std::string, std::vector<double>> layers;
  std::vector<double> unattributed, unattributed_share;
  std::map<std::string, double> fingerprint;
  bool have_fingerprint = false;
  int iterations = 0;
  int traced_iterations = 0;

  // An iteration starts only if one as long as the longest so far still
  // fits before the deadline, so a run ends close to --seconds.
  double longest = 0.0;
  while (iterations < min_iterations || now_s() + longest < deadline) {
    const double started = now_s();
    const bool use_trace = args.trace && iterations % 2 == 1;
    Tracer& tracer = use_trace ? traced : plain;
    tracer.clear();
    Iteration it = workload->iterate(tracer);
    ++iterations;
    longest = std::max(longest, now_s() - started);

    if (!have_fingerprint) {
      fingerprint = it.fingerprint;
      have_fingerprint = true;
    } else if (it.fingerprint != fingerprint) {
      it.fail("simulated statistics differ between iterations of one seed" +
              std::string(use_trace ? " (traced vs untraced)" : ""));
    }

    attempted += std::max<std::uint64_t>(it.ops_attempted, 1);
    const std::uint64_t bad =
        it.failures.empty() ? it.ops_failed
                            : std::max<std::uint64_t>(it.ops_failed, 1);
    failed += bad;
    for (const auto& f : it.failures) {
      if (std::find(failures.begin(), failures.end(), f) == failures.end()) {
        failures.push_back(f);
      }
    }
    if (!it.failures.empty()) continue;  // never a timing sample
    if (iterations == 1) continue;       // the warm-up

    const double total = it.setup_s + it.run_s;
    if (!use_trace) {
      setup.push_back(it.setup_s);
      setup.insert(setup.end(), it.extra_setup_s.begin(),
                   it.extra_setup_s.end());
      runs.push_back(it.run_s);
      ops_per_s.push_back(it.ops_per_s);
      op_ms.insert(op_ms.end(), it.op_ms.begin(), it.op_ms.end());
      plain_total.push_back(total);
      continue;
    }

    ++traced_iterations;
    traced_total.push_back(total);
    std::map<std::string, double> m = it.layer;
    for (const auto& [name, t] : tracer.self_times(/*keep_sublayers=*/true)) {
      if (name != "setup" && name != "run") m[name + "_s"] = t;
    }
    double attributed = 0.0;
    for (const auto& [name, self] : tracer.self_times()) {
      if (name != "setup" && name != "run") attributed += self;
    }
    derive_ratios(m);
    for (const auto& [name, v] : m) layers[name].push_back(v);
    unattributed.push_back(total - attributed);
    unattributed_share.push_back(total > 0 ? (total - attributed) / total
                                           : 0.0);
  }

  const double worst_share =
      unattributed_share.empty()
          ? 0.0
          : *std::max_element(unattributed_share.begin(),
                              unattributed_share.end());
  const bool attribution_ok = !args.trace ||
                              (!unattributed_share.empty() &&
                               worst_share <= kAttributionTolerance);
  if (!attribution_ok) {
    failures.push_back("attribution: unattributed share " +
                       std::to_string(worst_share) + " > tolerance " +
                       std::to_string(kAttributionTolerance));
  }
  if (args.trace ? traced_iterations == 0 : setup.empty()) {
    failures.push_back("no iteration passed its gates");
  }

  diners::util::JsonWriter w(std::cout, 0);
  w.begin_object()
      .field("workload", args.workload)
      .field("seed", args.params.seed)
      .field("trace", args.trace)
      .field("iterations", iterations)
      .field("traced_iterations", traced_iterations)
      .field("correct", failures.empty())
      .field("attempted", attempted)
      .field("failed", failed);
  w.key("failures").begin_array();
  for (const auto& f : failures) w.value(f);
  w.end_array();

  w.key("end_to_end").begin_object();
  if (!args.trace) {
    w.field("setup_s", interquartile_mean(setup))
        .field("run_s", median(runs))
        .field("peak_rss_mb", peak_rss_mb())
        .field("op_p50_ms", quantile(op_ms, 0.5))
        .field("ops_per_s", median(ops_per_s))
        .field("op_samples", static_cast<std::uint64_t>(op_ms.size()));
  }
  w.end_object();
  w.key("samples").begin_object();
  w.key("setup_s").begin_array();
  for (const double v : setup) w.value(v);
  w.end_array().key("run_s").begin_array();
  for (const double v : runs) w.value(v);
  w.end_array().key("op_ms_p50_p75_p90_p95_p99").begin_array();
  for (const double q : {0.5, 0.75, 0.9, 0.95, 0.99}) {
    w.value(quantile(op_ms, q));
  }
  w.end_array().end_object();

  w.key("per_layer").begin_object();
  for (const auto& [name, values] : layers) w.field(name, median(values));
  if (args.trace) {
    const double plain_med = median(plain_total);
    w.field("trace.unattributed_s", median(unattributed))
        .field("trace.unattributed_share", median(unattributed_share))
        .field("trace.overhead_share",
               plain_med > 0 ? median(traced_total) / plain_med - 1.0 : 0.0);
  }
  w.end_object();

  w.key("attribution")
      .begin_object()
      .field("tolerance", kAttributionTolerance)
      .field("worst_unattributed_share", worst_share)
      .field("ok", attribution_ok)
      .end_object();

  w.key("fingerprint").begin_object();
  for (const auto& [name, v] : fingerprint) w.field(name, v);
  w.end_object();
  w.end_object();
  w.finish();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
