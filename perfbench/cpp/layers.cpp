#include "layers.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <string>

#include "core/architecture.hpp"
#include "deploy/performance.hpp"
#include "obs/registry.hpp"
#include "obs/stage_profiler.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"
#include "xnor/exec.hpp"
#include "xnor/plan.hpp"

namespace perfbench {

namespace {

using bcop::core::Predictor;
using bcop::tensor::Shape;
using bcop::tensor::Tensor;
namespace xnor = bcop::xnor;

/// Summed StageProfiler time per interpreter slot for the one plan shape
/// that executed since the last Registry::reset_values().
struct Profile {
  std::string key;  // e.g. "b32_in32x32x3"
  std::uint64_t replays = 0;
  std::map<std::string, std::uint64_t> ns;
  std::map<std::string, std::uint64_t> calls;  // observations per slot

  std::uint64_t at(const std::string& slot) const {
    const auto it = ns.find(slot);
    return it == ns.end() ? 0 : it->second;
  }
};

Profile read_profile() {
  const bcop::obs::MetricsSnapshot snap =
      bcop::obs::Registry::global().snapshot();
  Profile p;
  const std::string head = "bcop_exec_", tail = "_replays_total";
  for (const auto& c : snap.counters) {
    if (c.value == 0 || c.name.rfind(head, 0) != 0 ||
        c.name.size() < head.size() + tail.size() ||
        c.name.compare(c.name.size() - tail.size(), tail.size(), tail) != 0)
      continue;
    if (!p.key.empty()) return {};  // two shapes ran: not a clean phase
    p.key = c.name.substr(head.size(),
                          c.name.size() - head.size() - tail.size());
    p.replays = c.value;
  }
  for (int s = 0; s < xnor::detail::kObsSlotCount; ++s) {
    const std::string slot = xnor::detail::kObsSlotNames[s];
    const std::string name = head + p.key + "_" + slot + "_ns";
    for (const auto& h : snap.histograms)
      if (h.name == name) {
        p.ns[slot] = h.sum;
        p.calls[slot] = h.count;
      }
  }
  return p;
}

/// `n` calls' worth of one batch through classify_batch and, interleaved,
/// through XnorNetwork::forward_batch, with a span around each call.
struct EngineRun {
  Samples classify_us, forward_us;
  Profile profile;
  std::int64_t batch = 0;
  std::uint64_t wrong = 0, images = 0;
};

EngineRun run_engine(const Predictor& p, const Tensor& input,
                     const int* labels, double seconds) {
  EngineRun run;
  run.batch = input.shape()[0];
  bcop::xnor::Workspace ws;
  Tensor logits;
  std::vector<Predictor::Result> results;
  p.classify_batch(input, ws, logits, results);  // plan compiled and warm
  bcop::obs::Registry::global().reset_values();
  const Clock::time_point t0 = Clock::now();
  while (since(t0) < seconds) {
    const Clock::time_point a = Clock::now();
    p.classify_batch(input, ws, logits, results);
    const Clock::time_point b = Clock::now();
    p.network().forward_batch(input, ws, logits, p.serve_levels());
    const Clock::time_point c = Clock::now();
    run.classify_us.add(std::chrono::duration<double, std::micro>(b - a).count());
    run.forward_us.add(std::chrono::duration<double, std::micro>(c - b).count());
    for (std::int64_t i = 0; i < run.batch; ++i)
      if (static_cast<int>(results[static_cast<std::size_t>(i)].label) !=
          labels[i])
        ++run.wrong;
    run.images += static_cast<std::uint64_t>(run.batch);
  }
  run.profile = read_profile();
  return run;
}

/// Report the per-step split of one engine run and check that it adds up:
/// the children plus `other` equal `execute` exactly (integer ns totals),
/// with binary_conv counted either as its three sub-phases (classic path)
/// or whole (residual path, which records no sub-phases) -- never both.
void report_steps(const EngineRun& run, const std::string& tag,
                  Report& report) {
  const Profile& p = run.profile;
  if (p.key.empty() || p.replays == 0) {
    report.fail("xnor." + tag + ": no single StageProfiler series recorded");
    return;
  }
  const bool residual = p.at("im2row") + p.at("binary_gemm") +
                            p.at("thresholds") == 0 &&
                        p.at("binary_conv") > 0;
  std::vector<std::pair<std::string, std::uint64_t>> parts = {
      {"first_conv", p.at("first_conv")}};
  if (residual) {
    parts.push_back({"binary_conv", p.at("binary_conv")});
  } else {
    parts.push_back({"im2row", p.at("im2row")});
    parts.push_back({"gemm", p.at("binary_gemm")});
    parts.push_back({"thresholds", p.at("thresholds")});
  }
  parts.push_back({"pool", p.at("pool")});
  parts.push_back({"dense", p.at("binary_dense")});
  parts.push_back({"logits", p.at("logits")});
  const std::uint64_t execute = p.at("execute");
  std::uint64_t children = 0;
  for (const auto& [name, ns] : parts) children += ns;
  // `other` is defined as execute - children, so the split adds up to
  // execute by construction; what can fail is children > execute (a
  // nested series counted twice).
  report.check(children <= execute,
               format("xnor.%s: step children %llu ns <= execute %llu ns "
                      "(nested series counted once)",
                      tag.c_str(), static_cast<unsigned long long>(children),
                      static_cast<unsigned long long>(execute)));
  parts.push_back({"other", execute >= children ? execute - children : 0});
  if (!residual)
    report.check(p.at("im2row") + p.at("binary_gemm") + p.at("thresholds") <=
                     p.at("binary_conv"),
                 format("xnor.%s: im2row + gemm + thresholds <= binary_conv",
                        tag.c_str()));
  const double per_image =
      1.0 / (static_cast<double>(p.replays) * static_cast<double>(run.batch));
  std::string table = format("xnor step split %-6s (plan %s, %llu replays):",
                             tag.c_str(), p.key.c_str(),
                             static_cast<unsigned long long>(p.replays));
  for (const auto& [name, ns] : parts) {
    report.json({"xnor." + name + "_ns." + tag, "ns",
                 static_cast<double>(ns) * per_image, p.replays,
                 "self ns/image, StageProfiler"});
    table += format(" %s %.1f%%", name.c_str(),
                    execute ? 100.0 * static_cast<double>(ns) /
                                  static_cast<double>(execute)
                            : 0.0);
  }
  report.json({"xnor.execute_ns." + tag, "ns",
               static_cast<double>(execute) * per_image, p.replays,
               "ns/image, StageProfiler"});
  report.line(table);
}

/// Lower-case metric-safe form of a Table I layer name ("Conv1.1" ->
/// "conv1_1", "FC.2" -> "fc_2").
std::string layer_key(const std::string& name) {
  std::string out;
  for (const char ch : name)
    out += ch == '.' ? '_' : static_cast<char>(std::tolower(ch));
  return out;
}

void noop_chunk(void*, std::int64_t, std::int64_t) {}

}  // namespace

EngineSummary engine_layers(std::uint64_t seed, const Tiles& tiles,
                            double seconds, Report& report) {
  const double slice = seconds / 12.0;  // the suite's unit of time
  const std::unique_ptr<Predictor> ncnv = build_ncnv(seed);
  const std::unique_ptr<Predictor> m3 = build_ncnv(seed, 3);
  const Tensor& b32 = tiles.batch32.front();

  // --- core + xnor: one engine run per serving shape. -------------------
  Tensor one;
  tiles.copy_tile(0, one);
  const EngineRun r1 = run_engine(*ncnv, one, tiles.label.data(), 2 * slice);
  const EngineRun r32 = run_engine(*ncnv, b32, tiles.label.data(), 2 * slice);
  // The M = 3 labels differ from n-CNV's; its own batch-1 answers are the
  // reference for its batched ones.
  std::vector<int> m3_labels;
  for (std::size_t i = 0; i < 32; ++i) {
    tiles.copy_tile(i, one);
    m3_labels.push_back(
        static_cast<int>(m3->classify_batch(one).front().label));
  }
  const EngineRun rm3 = run_engine(*m3, b32, m3_labels.data(), 2 * slice);
  const EngineSummary summary{r32.classify_us.median(),
                              rm3.classify_us.median()};
  for (const EngineRun* r : {&r1, &r32, &rm3}) {
    report.count(r->images, r->wrong);
    if (r->wrong) report.fail("engine probe: batched label != batch-1 label");
  }
  const std::pair<const EngineRun*, const char*> runs[] = {
      {&r1, "b1"}, {&r32, "b32"}, {&rm3, "m3b32"}};
  for (const auto& [run, tag] : runs) {
    report.json({std::string("core.classify_batch_us.") + tag, "us",
                 run->classify_us.mean(), run->classify_us.count(),
                 "mean classify_batch call"});
    report_steps(*run, tag, report);
  }
  const double post_ns = (r32.classify_us.mean() - r32.forward_us.mean()) *
                         1e3 / static_cast<double>(r32.batch);
  report.json({"core.postprocess_ns", "ns", post_ns, r32.classify_us.count(),
               "classify_batch - forward_batch, per image, b32"});
  {
    const double exec_us = static_cast<double>(r32.profile.at("execute")) /
                           static_cast<double>(std::max<std::uint64_t>(
                               r32.profile.replays, 1)) /
                           1e3;
    const double expect = exec_us + post_ns * 32 / 1e3;
    const double got = r32.classify_us.mean();
    report.check(std::fabs(got - expect) <= 0.15 * got,
                 format("core: classify_batch b32 %.1f us within 15%% of "
                        "execute %.1f us + postprocess %.1f us",
                        got, exec_us, post_ns * 32 / 1e3));
  }

  // --- tensor: operation counts from plan geometry / measured step time.
  {
    const xnor::ExecutionPlan& plan = ncnv->network().plan_for(b32.shape());
    double bitops = 0, macs = 0;
    for (const xnor::PlanStep& st : plan.steps()) {
      if (st.kind == xnor::StepKind::kBinConv)
        bitops += static_cast<double>(st.patch_rows) *
                  static_cast<double>(st.patch_cols) *
                  static_cast<double>(st.co);
      if (st.kind == xnor::StepKind::kFirstConv)
        macs += static_cast<double>(st.n * st.ho * st.wo) *
                static_cast<double>(st.co * st.k * st.k * st.c);
    }
    const double reps = static_cast<double>(
        std::max<std::uint64_t>(r32.profile.replays, 1));
    const double gemm_s =
        static_cast<double>(r32.profile.at("binary_gemm")) / reps * 1e-9;
    const double fc_s =
        static_cast<double>(r32.profile.at("first_conv")) / reps * 1e-9;
    report.json({"tensor.gemm_gbitops", "Gbitop/s",
                 gemm_s > 0 ? bitops / gemm_s * 1e-9 : 0, r32.profile.replays,
                 "computed: conv XNOR-popcount bit products / gemm time, b32"});
    report.json({"tensor.first_conv_gmacs", "GMAC/s",
                 fc_s > 0 ? macs / fc_s * 1e-9 : 0, r32.profile.replays,
                 "computed: first-conv MACs / first_conv time, b32"});

    // xnor: plan compilation and arena size for the b32 shape.
    Samples compile_us;
    const Clock::time_point t0 = Clock::now();
    while (since(t0) < slice / 2 || compile_us.count() < 5) {
      const Clock::time_point a = Clock::now();
      const xnor::ExecutionPlan fresh =
          xnor::ExecutionPlan::compile(ncnv->network(), b32.shape());
      compile_us.add(since(a) * 1e6);
      if (fresh.arena_bytes() != plan.arena_bytes())
        report.fail("xnor: recompiled plan has a different arena size");
    }
    report.json({"xnor.plan_compile_us", "us", compile_us.median(),
                 compile_us.count(), "median ExecutionPlan::compile, b32"});
    report.json({"xnor.arena_kib", "KiB",
                 static_cast<double>(plan.arena_bytes()) / 1024.0, 1,
                 "Workspace arena of the b32 plan"});
  }

  // --- parallel: one empty fork-join over nproc chunks. -----------------
  {
    auto& pool = bcop::parallel::ThreadPool::global();
    Samples us;
    const Clock::time_point t0 = Clock::now();
    while (since(t0) < slice / 2) {
      const Clock::time_point a = Clock::now();
      pool.for_chunks(0, nproc(), &noop_chunk, nullptr);
      us.add(since(a) * 1e6);
    }
    report.json({"parallel.fork_join_us", "us", us.median(), us.count(),
                 "median empty for_chunks over nproc chunks"});
  }

  // --- obs: StageProfiler on (A) vs off (B), A-B-A on b32 tiles. --------
  {
    auto& prof = bcop::obs::StageProfiler::global();
    bcop::xnor::Workspace ws;
    Tensor logits;
    std::vector<Predictor::Result> results;
    auto ns_per_image = [&](bool enabled) {
      prof.set_enabled(enabled);
      std::uint64_t images = 0;
      const Clock::time_point t0 = Clock::now();
      while (since(t0) < slice) {
        ncnv->classify_batch(b32, ws, logits, results);
        images += 32;
      }
      return since(t0) * 1e9 / static_cast<double>(images);
    };
    const double a1 = ns_per_image(true);
    const double b = ns_per_image(false);
    const double a2 = ns_per_image(true);
    prof.set_enabled(true);
    report.json({"obs.profiler_overhead_frac", "ratio",
                 ((a1 + a2) / 2 - b) / b, 3,
                 "A-B-A: (on - off) / off, b32 ns/image"});
  }

  // --- xnor layers: every n-CNV layer alone at b32, beside FINN cycles. --
  {
    const xnor::XnorNetwork& full = ncnv->network();
    const xnor::ExecutionPlan& plan = full.plan_for(b32.shape());
    const std::vector<bcop::core::LayerSpec> specs =
        bcop::core::layer_specs(bcop::core::ArchitectureId::kNCnv);
    const bcop::deploy::PerfReport finn =
        bcop::deploy::analyze_performance(specs);
    // Group stages into Table I layers: each conv/dense stage opens a
    // layer, a following pool joins it. Flatten has no layer of its own
    // (its bit permutation stays in the full network's `other`).
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < full.stages().size(); ++i) {
      const xnor::Stage& s = full.stages()[i];
      if (std::holds_alternative<xnor::PoolStage>(s)) {
        if (!groups.empty()) groups.back().push_back(i);
      } else if (!std::holds_alternative<xnor::FlattenStage>(s)) {
        groups.push_back({i});
      }
    }
    if (groups.size() != specs.size()) {
      report.fail(format("layer table: %zu stage groups for %zu n-CNV layers",
                         groups.size(), specs.size()));
      return summary;
    }
    // One single-layer network per group, fed the tiles (first layer) or
    // random bipolar activations of the layer's input shape; the full
    // network is entry 0.
    struct Timed {
      std::unique_ptr<xnor::XnorNetwork> owned;
      const xnor::XnorNetwork* net;
      Tensor x;
      bcop::xnor::Workspace ws;
      Tensor out;
      Profile total;
    };
    std::vector<Timed> nets(groups.size() + 1);
    nets[0].net = &full;
    nets[0].x = b32;
    bcop::util::Rng rng(seed + 77);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      std::vector<xnor::Stage> stages;
      for (const std::size_t i : groups[g]) stages.push_back(full.stages()[i]);
      Timed& t = nets[g + 1];
      t.owned = std::make_unique<xnor::XnorNetwork>(specs[g].name,
                                                    std::move(stages));
      t.net = t.owned.get();
      const xnor::StageShape& in = plan.stage_shapes()[groups[g].front()];
      if (g == 0) {
        t.x = b32;
      } else {
        t.x = Tensor(Shape{32, in.h_in, in.w_in, in.c_in});
        for (std::int64_t j = 0; j < t.x.numel(); ++j)
          t.x[j] = rng.bernoulli(0.5) ? 1.f : -1.f;
      }
    }
    // Interleaved rounds, so the full network and every layer see the same
    // host conditions; each short phase is profiled on its own (the first
    // layer shares the full network's plan key).
    for (Timed& t : nets) t.net->forward_batch(t.x, t.ws, t.out);
    constexpr int kRounds = 8;
    const double phase = 2 * slice / (kRounds * static_cast<double>(nets.size()));
    for (int r = 0; r < kRounds; ++r) {
      for (Timed& t : nets) {
        bcop::obs::Registry::global().reset_values();
        const Clock::time_point t0 = Clock::now();
        do {
          t.net->forward_batch(t.x, t.ws, t.out);
        } while (since(t0) < phase);
        const Profile p = read_profile();
        t.total.replays += p.replays;
        for (const auto& [slot, ns] : p.ns) t.total.ns[slot] += ns;
        for (const auto& [slot, n] : p.calls) t.total.calls[slot] += n;
      }
    }
    auto per_image = [](const Profile& p, std::uint64_t ns) {
      return static_cast<double>(ns) /
             (static_cast<double>(std::max<std::uint64_t>(p.replays, 1)) * 32);
    };
    double layer_sum = 0, gap_sum = 0;
    report.line("layer      xnor ns/img  pack+unpack ns/img  FINN cycles/img"
                "  FINN ns/img@100MHz  CPU/FINN");
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const Profile& p = nets[g + 1].total;
      const double gap = per_image(p, p.at("pack_input") + p.at("unpack"));
      const double layer = per_image(p, p.at("execute")) - gap;
      layer_sum += layer;
      gap_sum += gap;
      const std::string key = layer_key(specs[g].name);
      const std::int64_t cycles = finn.layers[g].effective_cycles;
      report.json({"xnor.layer." + key + "_ns", "ns", layer, p.replays,
                   "ns/image alone at b32, pack/unpack excluded"});
      report.json({"deploy.layer." + key + "_cycles", "cycles",
                   static_cast<double>(cycles), 1,
                   "FINN-model cycles/image (deterministic)"});
      const double finn_ns =
          static_cast<double>(cycles) / bcop::deploy::kClockHz * 1e9;
      report.line(format("%-10s %11.1f  %18.1f  %15lld  %18.1f  %8.3f",
                         key.c_str(), layer, gap,
                         static_cast<long long>(cycles), finn_ns,
                         layer / finn_ns));
    }
    // The single-layer nets must run exactly the full network's steps:
    // per replay, each step slot fires as often summed over the layers as
    // in the full network (flatten, which no layer owns, and the
    // per-network pack/unpack/execute slots aside). Their step time
    // summed must then match the full network's step time in the same
    // rounds.
    const char* const kSteps[] = {"first_conv", "binary_conv", "im2row",
                                  "binary_gemm", "thresholds", "pool",
                                  "binary_dense", "logits"};
    auto per_replay = [](const Profile& p, const std::string& slot) {
      const auto it = p.calls.find(slot);
      const std::uint64_t n = it == p.calls.end() ? 0 : it->second;
      return p.replays == 0 || n % p.replays ? -1.0
                                             : static_cast<double>(n / p.replays);
    };
    const Profile& whole = nets[0].total;
    for (const char* slot : kSteps) {
      double layers = 0;
      for (std::size_t g = 0; g < groups.size(); ++g)
        layers += per_replay(nets[g + 1].total, slot);
      report.check(layers == per_replay(whole, slot),
                   format("xnor: %s fires %g times per replay over the "
                          "layers, %g in the full network",
                          slot, layers, per_replay(whole, slot)));
    }
    // Step time, with binary_conv counted as its three sub-phases.
    double layer_steps = 0, whole_steps = 0;
    for (const char* slot : kSteps) {
      if (std::string(slot) == "binary_conv") continue;
      whole_steps += per_image(whole, whole.at(slot));
      for (std::size_t g = 0; g < groups.size(); ++g)
        layer_steps += per_image(nets[g + 1].total, nets[g + 1].total.at(slot));
    }
    report.line(format("layer sum %.1f ns/img (steps %.1f) vs full network "
                       "execute %.1f ns/img (steps %.1f) in the same rounds; "
                       "pack/unpack gap of the single-layer nets %.1f ns/img, "
                       "excluded",
                       layer_sum, layer_steps,
                       per_image(whole, whole.at("execute")), whole_steps,
                       gap_sum));
    // Layers run alone measured -3% to +16% against the full network in
    // quiet and steal-heavy runs (single layers pay more pool wake-ups per
    // ns of work); a missing or doubled layer fails the count check above.
    report.check(std::fabs(layer_steps - whole_steps) <= 0.35 * whole_steps,
                 format("xnor: layer step time %.1f within 35%% of the full "
                        "network's %.1f ns/image",
                        layer_steps, whole_steps));
  }
  return summary;
}

}  // namespace perfbench
