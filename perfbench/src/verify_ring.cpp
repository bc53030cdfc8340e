// verify-ring4 — the exhaustive explorer proving Theorems 1 and 2.
//
// Why: it is the explorer headline and the only workload that exercises the
// key index, canonicalisation and the property oracles. This is the
// diners_mc --exhaustive flow with the sound threshold, sym+por reduction
// and 2 explorer jobs, seeded with every state of the depth box (Theorem
// 1's arbitrary start): explore, label I, then check closure, convergence
// and no-starvation per orbit representative. The property checks are the
// larger share of the time. A ring of 4 rather than 6: ring-6 from one
// instance state takes about 20 s and 0.9 GB per proof, too long to repeat
// within one run. The run's seed permutes the node ids, so every seed
// proves the same instance up to isomorphism (identical state and arc
// counts) under a different key layout.
//
// Gates: closure, convergence and progress all pass on a complete graph.
// Teeth: verify-no-fixdepth explores under GuardMutation::kNoFixdepth,
// which can no longer break the priority cycles of the box and must fail
// convergence.
#include <memory>
#include <optional>
#include <span>

#include "bench.hpp"
#include "core/serialize.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "verify/canonical.hpp"
#include "verify/explorer.hpp"
#include "verify/properties.hpp"

namespace perfbench {
namespace {

using diners::core::DinersSystem;
namespace vf = diners::verify;

constexpr std::uint64_t kInstanceStream = 0x15;

class VerifyRing final : public Workload {
 public:
  explicit VerifyRing(const Params& p)
      : seed_(p.seed),
        n_(p.tiny ? 3u : 4u),
        mutation_(p.teeth == "verify-no-fixdepth"
                      ? vf::GuardMutation::kNoFixdepth
                      : vf::GuardMutation::kNone) {}

  Iteration iterate(Tracer& tracer) override {
    Iteration it;
    Phases phases(tracer);
    phases.begin_setup();
    std::optional<diners::graph::Graph> g;
    {
      Scope s(tracer, "graph.build");
      // A ring whose node ids are a seeded permutation: the same instance
      // up to isomorphism, with a different key layout per seed.
      std::vector<diners::graph::NodeId> id(n_);
      for (diners::graph::NodeId p = 0; p < n_; ++p) id[p] = p;
      diners::util::Xoshiro256 rng(
          diners::util::derive_seed(seed_, kInstanceStream));
      rng.shuffle(std::span<diners::graph::NodeId>(id));
      diners::graph::Graph::Builder b(n_);
      for (diners::graph::NodeId p = 0; p < n_; ++p) {
        b.add_edge(id[p], id[(p + 1) % n_]);
      }
      g.emplace(std::move(b).build());
    }
    std::unique_ptr<DinersSystem> prototype;
    {
      Scope s(tracer, "core.init");
      diners::core::DinersConfig config;
      config.diameter_override = n_ - 1;  // the sound threshold
      prototype = std::make_unique<DinersSystem>(std::move(*g), config);
      for (diners::graph::NodeId p = 0; p < n_; ++p) {
        prototype->set_needs(p, true);
      }
    }
    std::unique_ptr<vf::StateCodec> codec;
    std::vector<vf::Key> seeds;
    std::unique_ptr<DinersSystem> scratch;
    std::unique_ptr<vf::Explorer> explorer;
    {
      Scope s(tracer, "verify.seed");
      const std::int64_t d = prototype->diameter_constant();
      codec = std::make_unique<vf::StateCodec>(prototype->topology(), 0, d + 1);
      seeds.reserve(codec->domain_size());
      for (std::uint64_t i = 0; i < codec->domain_size(); ++i) {
        seeds.push_back(codec->domain_key(i));
      }
      scratch = std::make_unique<DinersSystem>(diners::core::clone(*prototype));
      vf::Explorer::Options options;
      options.mutation = mutation_;
      options.jobs = 2;
      options.reduce_sym = true;
      options.reduce_por = true;
      options.expected_states = seeds.size();
      explorer = std::make_unique<vf::Explorer>(*scratch, *codec, options);
    }

    phases.begin_run();
    vf::StateGraph graph;
    {
      Scope s(tracer, "verify.explore");
      graph = explorer->explore(seeds);
    }
    std::vector<std::string> broken;
    if (!graph.complete) broken.push_back("state cap hit");
    if (broken.empty()) {
      std::vector<std::uint8_t> inv;
      {
        Scope s(tracer, "verify.label");
        inv = vf::label_invariant(graph, *codec, *scratch);
      }
      {
        Scope s(tracer, "verify.closure");
        if (const auto v = vf::check_closure(graph, inv)) {
          broken.push_back("closure: " + v->detail);
        }
      }
      {
        Scope s(tracer, "verify.convergence");
        if (const auto v = vf::check_convergence(graph, inv)) {
          broken.push_back("convergence: " + v->detail);
        }
      }
      {
        Scope s(tracer, "verify.progress");
        std::vector<std::uint8_t> rep(n_, 1);
        if (graph.sym != nullptr) {
          for (const auto& orbit : graph.sym->node_orbits()) {
            for (std::size_t i = 1; i < orbit.size(); ++i) rep[orbit[i]] = 0;
          }
        }
        for (diners::graph::NodeId p = 0; p < n_; ++p) {
          if (rep[p] == 0) continue;
          if (const auto v = vf::check_no_starvation(graph, *codec, p)) {
            broken.push_back("progress of " + std::to_string(p) + ": " +
                             v->detail);
            break;
          }
        }
      }
    }
    phases.end(it);

    for (const auto& b : broken) it.fail("verify-ring: " + b);
    it.ops_attempted = 1;
    it.ops_failed = broken.empty() ? 0 : 1;
    it.op_ms.push_back(it.run_s * 1e3);
    it.ops_per_s = 1.0 / it.run_s;

    const auto& r = graph.reduction;
    it.layer["verify.states"] = graph.num_states();
    it.layer["verify.arcs"] = static_cast<double>(graph.succ.size());
    it.layer["verify.raw_candidates"] = static_cast<double>(r.raw_candidates);
    it.layer["verify.canonical_hit_ratio"] =
        r.raw_candidates ? static_cast<double>(r.canonical_hits) /
                               static_cast<double>(r.raw_candidates)
                         : 0.0;
    it.fingerprint["verify.states"] = graph.num_states();
    it.fingerprint["verify.arcs"] = static_cast<double>(graph.succ.size());
    return it;
  }

 private:
  std::uint64_t seed_;
  std::uint32_t n_;
  vf::GuardMutation mutation_;
};

}  // namespace

std::unique_ptr<Workload> make_verify_ring(const Params& params) {
  return std::make_unique<VerifyRing>(params);
}

}  // namespace perfbench
