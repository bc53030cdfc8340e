// svc-ring — the lock/lease service headline, and the only workload on
// service/msgpass.
//
// Why: an in-process ServiceHost on ring-8 serves 4 client threads, one
// connection each, on nodes 0-3. Arbiter 6 is at distance 2 from node 0
// and at distance >= 3 from nodes 1-3, so its crash has a near stratum and
// a far stratum. Three phases:
//   open    open loop at kRate aggregate with a kHoldUs hold; each
//           request is timed from its due time (these are the operations
//           whose latency the run reports);
//   closed  closed loop acquire -> release with no hold (throughput);
//   chaos   the open loop again, with a malicious crash of arbiter 6
//           (8 garbage messages), a restart, and await_recovery.
// kRate is 2,000 req/s rather than 3,000: on a contended 4-vCPU host the
// 3,000 req/s open loop backed up past the deadline in slow spells.
//
// Gates: no failed request in the open and closed phases, and in them
// clients on adjacent nodes never hold overlapping leases (client-side
// grant -> release intervals on one monotonic clock, a subset of the true
// lease); in the chaos phase far clients see no timeout (a revocation is
// allowed) and the watchdog reports recovered. Teeth: svc-overlap feeds
// the overlap checker a synthetic overlapping pair, which it must reject.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "graph/generators.hpp"
#include "service/arbiter.hpp"
#include "service/client.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace sv = diners::service;
using diners::graph::NodeId;

constexpr NodeId kRingSize = 8;
constexpr std::uint32_t kClients = 4;  // on nodes 0..3
constexpr NodeId kVictim = 6;
constexpr std::uint32_t kMalice = 8;
constexpr double kRate = 2000.0;  // requests/s, all clients together
constexpr std::uint32_t kHoldUs = 200;
/// Acquire deadline. Far above any grant latency of a healthy run, so only
/// a stalled or starved request times out; the arbiter stays crashed for
/// longer than this, so a far client starved by the crash would time out.
constexpr std::uint32_t kDeadlineMs = 1000;
constexpr double kCrashAfterS = 0.25;  // into the chaos phase
constexpr double kCrashedS = 1.25;     // until the restart
constexpr double kChaosS = kCrashAfterS + kCrashedS + 0.5;
/// Set-ups per iteration: kSetups - 1 untraced ones, then the measured one.
constexpr int kSetups = 16;

/// Graph distance from kVictim on the ring.
std::uint32_t victim_distance(NodeId p) {
  const NodeId d = p > kVictim ? p - kVictim : kVictim - p;
  return std::min<NodeId>(d, kRingSize - d);
}

/// The steady_clock time point of a now_s() reading.
Clock::time_point at(double t) {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(t)));
}

enum class Outcome : std::uint8_t { kGranted, kTimeout, kRevoked, kError };

struct Request {
  NodeId node = 0;
  double due = 0.0;      ///< scheduled time (closed loop: when issued)
  double sent = 0.0;     ///< acquire() called
  double granted = 0.0;  ///< acquire() returned kGranted
  double release = 0.0;  ///< release() called
  double released = 0.0;
  Outcome outcome = Outcome::kError;
};

/// One client's serial request loop. `due` holds its scheduled times (open
/// loop) or is empty (closed loop: `count` back-to-back requests).
void client_loop(sv::DinersClient& client, NodeId node,
                 const std::vector<double>& due, std::size_t count,
                 std::uint32_t hold_us, std::vector<Request>& out) {
  const std::size_t total = due.empty() ? count : due.size();
  for (std::size_t i = 0; i < total; ++i) {
    Request r;
    r.node = node;
    if (!due.empty()) {
      r.due = due[i];
      const auto wait = r.due - now_s();
      if (wait > 0) std::this_thread::sleep_until(at(r.due));
    }
    r.sent = now_s();
    if (due.empty()) r.due = r.sent;
    const auto deadline_from = [](double t) {
      return at(t) + std::chrono::milliseconds(kDeadlineMs);
    };
    switch (client.acquire(deadline_from(r.due))) {
      case sv::AcquireOutcome::kGranted: {
        r.granted = now_s();
        if (hold_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(hold_us));
        }
        r.release = now_s();
        const auto rel = client.release(deadline_from(r.release));
        r.released = now_s();
        r.outcome = rel == sv::ReleaseOutcome::kReleased ? Outcome::kGranted
                    : rel == sv::ReleaseOutcome::kRevoked ? Outcome::kRevoked
                                                           : Outcome::kError;
        break;
      }
      case sv::AcquireOutcome::kTimeout:
        r.outcome = Outcome::kTimeout;
        break;
      case sv::AcquireOutcome::kError:
        r.outcome = Outcome::kError;
        break;
    }
    out.push_back(r);
  }
}

/// Pairs of cleanly released leases on adjacent nodes whose client-side
/// grant -> release intervals overlap. A revoked lease ended when the
/// arbiter took it back, which the client cannot observe, so it is left out.
std::size_t lease_overlaps(std::vector<Request> reqs,
                           const diners::graph::Graph& g) {
  std::erase_if(reqs, [](const Request& r) {
    return r.outcome != Outcome::kGranted;
  });
  std::sort(reqs.begin(), reqs.end(), [](const Request& a, const Request& b) {
    return a.granted < b.granted;
  });
  std::size_t overlaps = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    for (std::size_t j = i + 1;
         j < reqs.size() && reqs[j].granted < reqs[i].release; ++j) {
      if (g.has_edge(reqs[i].node, reqs[j].node)) ++overlaps;
    }
  }
  return overlaps;
}

class SvcRing final : public Workload {
 public:
  explicit SvcRing(const Params& p)
      : seed_(p.seed),
        open_s_(p.tiny ? 0.2 : 1.5),
        closed_per_client_(p.tiny ? 100 : 1500),
        synthetic_overlap_(p.teeth == "svc-overlap") {
    dir_ = ".bench_build/perfbench/sock-" + std::to_string(::getpid());
    std::filesystem::create_directories(dir_);
  }
  ~SvcRing() override {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  Iteration iterate(Tracer& tracer) override {
    Iteration it;
    // A set-up takes a whole number of the service loop's 1 ms poll
    // intervals, and how many depends on the protocol's seed. So each
    // iteration first runs complete untraced set-ups, each under its own
    // seed derived from the run's and torn down again; their times join the
    // run's setup_s, which then does not hang on one seed's count.
    const std::uint64_t mp_seed = diners::util::derive_seed(seed_, 0x5e);
    Tracer untraced(false);
    for (int k = 1; k < kSetups; ++k) {
      const double t0 = now_s();
      Service extra =
          set_up(untraced, it, diners::util::derive_seed(mp_seed, k));
      it.extra_setup_s.push_back(now_s() - t0);
      extra.clients.clear();
      extra.host->stop();
    }

    Phases phases(tracer);
    phases.begin_setup();
    Service service = set_up(tracer, it, mp_seed);
    const auto& topology = service.topology;
    auto& host = service.host;
    auto& clients = service.clients;
    const auto stats0 = host->stats();

    phases.begin_run();
    // Runs one phase on every client thread, returning all requests.
    const auto phase = [&](double rate, double seconds, std::size_t count,
                           std::uint32_t hold_us,
                           const std::function<void()>& meanwhile) {
      std::vector<std::vector<Request>> per(kClients);
      std::vector<std::jthread> threads;  // joined on every exit path
      const double start = now_s() + 0.002;
      for (NodeId c = 0; c < kClients; ++c) {
        std::vector<double> due;
        if (rate > 0) {
          // Aggregate request j is due at j / rate; client j % kClients.
          const auto total = static_cast<std::size_t>(rate * seconds);
          for (std::size_t j = c; j < total; j += kClients) {
            due.push_back(start + static_cast<double>(j) / rate);
          }
        }
        threads.emplace_back([&, c, due = std::move(due)] {
          try {
            client_loop(*clients[c], c, due, count, hold_us, per[c]);
          } catch (const std::exception&) {
            per[c].push_back({.node = c, .outcome = Outcome::kError});
          }
        });
      }
      if (meanwhile) meanwhile();
      threads.clear();
      std::vector<Request> all;
      for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
      return all;
    };

    std::vector<Request> open, closed, chaos;
    {
      Scope s(tracer, "load.open");
      open = phase(kRate, open_s_, 0, kHoldUs, {});
    }
    const auto stats1 = host->stats();
    double closed_s = 0.0;
    {
      Scope s(tracer, "load.closed");
      const double t = now_s();
      closed = phase(0, 0, closed_per_client_, 0, {});
      closed_s = now_s() - t;
    }
    const auto stats2 = host->stats();
    double crash_at = 0.0;
    double restart_at = 0.0;
    {
      Scope s(tracer, "load.chaos");
      chaos = phase(kRate, kChaosS, 0, kHoldUs, [&] {
        const double t0 = now_s();
        std::this_thread::sleep_until(at(t0 + kCrashAfterS));
        crash_at = now_s();
        {
          Scope c(tracer, "service.crash");
          host->crash(kVictim, kMalice);
        }
        std::this_thread::sleep_until(at(t0 + kCrashAfterS + kCrashedS));
        restart_at = now_s();
        Scope c(tracer, "service.restart");
        host->restart(kVictim);
      });
    }
    diners::chaos::WatchdogVerdict verdict;
    {
      Scope s(tracer, "service.await_recovery");
      diners::chaos::WatchdogOptions wo;
      wo.budget_steps = 200000;
      verdict = host->await_recovery(wo);
    }
    phases.end(it);
    const auto stats3 = host->stats();
    std::uint64_t reconnects = 0;
    for (const auto& c : clients) reconnects += c->reconnects();
    clients.clear();
    host->stop();

    // --- gates -------------------------------------------------------------
    const auto count_bad = [](const std::vector<Request>& v) {
      return static_cast<std::uint64_t>(
          std::count_if(v.begin(), v.end(), [](const Request& r) {
            return r.outcome != Outcome::kGranted;
          }));
    };
    const std::uint64_t open_bad = count_bad(open);
    const std::uint64_t closed_bad = count_bad(closed);
    if (open_bad) {
      it.fail("svc-ring: " + std::to_string(open_bad) +
              " failed requests in the open phase");
    }
    if (closed_bad) {
      it.fail("svc-ring: " + std::to_string(closed_bad) +
              " failed requests in the closed phase");
    }
    // A revoked lease was granted and then taken back by the protocol while
    // it recovered from the crash's garbage; far clients may see that, but
    // must not time out or fail.
    const auto timed_out = [](const Request& r) {
      return r.outcome == Outcome::kTimeout || r.outcome == Outcome::kError;
    };
    std::vector<Request> far;
    std::uint64_t far_timeouts = 0;
    for (const auto& r : chaos) {
      if (victim_distance(r.node) < 3) continue;
      far.push_back(r);
      far_timeouts += timed_out(r);
    }
    if (far_timeouts) {
      std::string which;  // the first few, for the record
      int listed = 0;
      for (const auto& r : far) {
        if (!timed_out(r) || ++listed > 5) continue;
        which += " node " + std::to_string(r.node) + " due " +
                 std::to_string(static_cast<int>((r.due - crash_at) * 1e3)) +
                 " ms after the crash;";
      }
      it.fail("svc-ring: " + std::to_string(far_timeouts) +
              " far-client requests timed out during the crash:" + which);
    }
    if (!verdict.ok()) {
      it.fail("svc-ring: watchdog did not report recovered: " +
              verdict.failure);
    }
    // Exclusion is judged in the fault-free phases. The crash's garbage
    // messages land on random inter-arbiter links (msgpass inject_garbage),
    // so in the chaos phase safety only holds eventually (Theorem 1); its
    // overlaps are counted, not gated.
    const std::size_t chaos_overlaps = lease_overlaps(chaos, topology);
    std::vector<Request> leases = open;
    leases.insert(leases.end(), closed.begin(), closed.end());
    if (synthetic_overlap_ && !leases.empty()) {
      Request a = leases.front();
      Request b = a;
      a.node = 1;
      b.node = 2;
      b.granted = a.granted + (a.release - a.granted) / 2;
      b.release = a.release + 1e-3;
      leases.push_back(a);
      leases.push_back(b);
    }
    const std::size_t overlaps = lease_overlaps(std::move(leases), topology);
    if (overlaps) {
      it.fail("svc-ring: " + std::to_string(overlaps) +
              " overlapping leases on adjacent nodes");
    }
    it.ops_attempted = open.size() + closed.size() + far.size();
    it.ops_failed = open_bad + closed_bad + far_timeouts + overlaps;

    // --- metrics -----------------------------------------------------------
    std::vector<double> acquire_ms, release_ms, lateness_ms;
    for (const auto& r : open) {
      it.op_ms.push_back((r.granted - r.due) * 1e3);
      lateness_ms.push_back((r.sent - r.due) * 1e3);
    }
    for (const auto* phase_reqs : {&open, &closed}) {
      for (const auto& r : *phase_reqs) {
        acquire_ms.push_back((r.granted - r.sent) * 1e3);
        release_ms.push_back((r.released - r.release) * 1e3);
      }
    }
    it.ops_per_s = static_cast<double>(closed.size()) / closed_s;
    std::vector<double> far_impact;
    for (const auto& r : far) {
      if (r.due >= crash_at && r.due < restart_at + kDeadlineMs / 1e3 &&
          r.outcome == Outcome::kGranted) {
        far_impact.push_back((r.granted - r.due) * 1e3);
      }
    }
    const auto grants_closed = static_cast<double>(stats2.grants - stats1.grants);
    auto& L = it.layer;
    L["client.acquire_p50_ms"] = quantile(acquire_ms, 0.5);
    L["client.release_p50_ms"] = quantile(release_ms, 0.5);
    L["load.lateness_p50_ms"] = quantile(lateness_ms, 0.5);
    L["load.lateness_max_ms"] = quantile(lateness_ms, 1.0);
    L["load.grant_p90_ms"] = quantile(it.op_ms, 0.9);
    L["load.grant_p99_ms"] = quantile(it.op_ms, 0.99);
    if (grants_closed > 0) {
      L["service.steps_per_grant"] =
          static_cast<double>(stats2.steps - stats1.steps) / grants_closed;
      L["service.messages_per_grant"] =
          static_cast<double>(stats2.messages_sent - stats1.messages_sent) /
          grants_closed;
    }
    L["service.far_impact_p50_ms"] = quantile(far_impact, 0.5);
    L["service.far_timeouts"] = static_cast<double>(far_timeouts);
    L["service.recovery_steps"] =
        static_cast<double>(verdict.steps_to_converge);
    L["client.reconnects"] = static_cast<double>(reconnects);
    L["service.revocations"] =
        static_cast<double>(stats3.revocations - stats0.revocations);
    L["service.chaos_overlaps"] = static_cast<double>(chaos_overlaps);
    L["service.dropped_connections"] = static_cast<double>(
        stats3.dropped_connections - stats0.dropped_connections);
    return it;
  }

 private:
  struct Service {
    diners::graph::Graph topology;
    std::unique_ptr<sv::ServiceHost> host;
    std::vector<std::unique_ptr<sv::DinersClient>> clients;
  };

  /// Builds the ring, starts the service (protocol seed `mp_seed`) and
  /// connects every client.
  Service set_up(Tracer& tracer, Iteration& it, std::uint64_t mp_seed) {
    std::optional<diners::graph::Graph> g;
    {
      Scope s(tracer, "graph.build");
      g.emplace(diners::graph::make_ring(kRingSize));
    }
    Service out{*g, nullptr, {}};
    {
      Scope s(tracer, "service.start");
      sv::ServiceOptions options;
      options.socket_dir = dir_;
      options.mp.seed = mp_seed;
      out.host = std::make_unique<sv::ServiceHost>(std::move(*g), options);
      out.host->start();
    }
    {
      // The client connects lazily; one acquire/release round trip per
      // client establishes the connection and its HELLO.
      Scope s(tracer, "client.connect");
      for (NodeId c = 0; c < kClients; ++c) {
        sv::ClientOptions co;
        co.endpoint = sv::ServiceHost::endpoint_path(dir_, c);
        co.seed = diners::util::derive_seed(seed_, 0xc0 + c);
        out.clients.push_back(std::make_unique<sv::DinersClient>(co));
        std::vector<Request> first;
        client_loop(*out.clients.back(), c, {}, 1, 0, first);
        if (first[0].outcome != Outcome::kGranted) {
          it.fail("svc-ring: client " + std::to_string(c) +
                  " could not connect");
        }
      }
    }
    return out;
  }

  std::uint64_t seed_;
  double open_s_;
  std::size_t closed_per_client_;
  bool synthetic_overlap_;
  std::string dir_;
};

}  // namespace

std::unique_ptr<Workload> make_svc_ring(const Params& params) {
  return std::make_unique<SvcRing>(params);
}

}  // namespace perfbench
