// train20: sequential REINFORCE (rollout_workers = 1, batch 8) on 8 graphs x
// 2 networks of 20 tasks x 8 devices. The same nn/core layers as serve16, but
// every decide records a tape, and each batch runs backward and an Adam step.
//
// Untraced run: fresh agents trained for 64 episodes, back to back; every
// run's TrainStats must equal the first run's bitwise.
//
// Traced run: the agent is wrapped in a timing SearchPolicy decorator that
// forwards parameters() and clone_for_rollout(); its TrainStats must equal
// the untraced run's bitwise. nn::backward is timed separately on decisions
// of a policy clone, off the training path.

#include <memory>

#include "common.hpp"
#include "core/giph_agent.hpp"
#include "core/reinforce.hpp"
#include "gen/dataset.hpp"
#include "sim/metrics.hpp"

namespace perfbench {
namespace {

using namespace giph;

constexpr int kBatch = 8;
constexpr std::uint64_t kAgentSeed = 17;

struct Setup {
  Dataset data;
  TrainOptions topt;
};

void make_setup(const Args& args, Setup& s) {
  // perf_train's dataset, with this run's jitter on every graph.
  std::mt19937_64 rng(4242);
  TaskGraphParams gp;
  gp.num_tasks = args.tiny ? 8 : 20;
  NetworkParams np;
  np.num_devices = args.tiny ? 4 : 8;
  s.data = generate_dataset({gp}, {np}, 8, 2, rng);
  std::mt19937_64 jitter = input_rng(args.seed, 20);
  for (TaskGraph& g : s.data.graphs) jitter_graph(g, jitter);
  // The benches' training hyperparameters (lr 0.003, gamma 0.1, undiscounted
  // state weights).
  s.topt = TrainOptions{};
  s.topt.episodes = args.tiny ? kBatch : 8 * kBatch;
  s.topt.batch_episodes = kBatch;
  s.topt.rollout_workers = 1;
  s.topt.lr = 0.003;
  s.topt.gamma = 0.1;
  s.topt.discount_state_weight = false;
  s.topt.seed = 91;
}

InstanceSampler sampler_of(const Dataset& ds) {
  return [&ds](std::mt19937_64& rng) {
    std::uniform_int_distribution<std::size_t> gi(0, ds.graphs.size() - 1);
    std::uniform_int_distribution<std::size_t> ni(0, ds.networks.size() - 1);
    return ProblemInstance{&ds.graphs[gi(rng)], &ds.networks[ni(rng)]};
  };
}

GiPHAgent fresh_agent() {
  GiPHOptions o;
  o.seed = kAgentSeed;
  return GiPHAgent(o);
}

bool same_stats(const TrainStats& a, const TrainStats& b) {
  return a.episode_initial == b.episode_initial && a.episode_final == b.episode_final &&
         a.episode_best == b.episode_best;
}

/// Mean SLR of the last batch's final placements.
double last_batch_slr(const TrainStats& st) {
  const std::size_t n = st.episode_final.size();
  const std::size_t from = n > kBatch ? n - kBatch : 0;
  return mean(std::vector<double>(st.episode_final.begin() + static_cast<long>(from),
                                  st.episode_final.end()));
}

/// Times every decide of the wrapped policy and counts its tape nodes.
class TimingPolicy final : public SearchPolicy {
 public:
  explicit TimingPolicy(SearchPolicy& inner) : inner_(inner) {}

  ActionDecision decide(PlacementSearchEnv& env, std::mt19937_64& rng,
                        bool greedy) override {
    ActionDecision d =
        timed(decide_span, [&] { return inner_.decide(env, rng, greedy); });
    if (d.log_prob) tape_nodes += static_cast<double>(nn::graph_size(d.log_prob));
    return d;
  }
  std::vector<nn::Var> parameters() override { return inner_.parameters(); }
  std::unique_ptr<SearchPolicy> clone_for_rollout() const override {
    return inner_.clone_for_rollout();
  }
  void begin_episode() override { inner_.begin_episode(); }
  int episode_limit(const TaskGraph& g) const override { return inner_.episode_limit(g); }
  std::string name() const override { return inner_.name(); }

  Span decide_span;
  double tape_nodes = 0.0;

 private:
  SearchPolicy& inner_;
};

/// Median wall microseconds of nn::backward on the log-prob of a sampled
/// decision of a policy clone.
double backward_us(const Setup& s, const GiPHAgent& agent, int reps,
                   std::int64_t* calls) {
  const DefaultLatencyModel lat;
  std::unique_ptr<SearchPolicy> clone = agent.clone_for_rollout();
  const TaskGraph& g = s.data.graphs.front();
  const DeviceNetwork& n = s.data.networks.front();
  std::mt19937_64 rng(3);
  PlacementSearchEnv env(g, n, lat, makespan_objective(lat), random_placement(g, n, rng),
                         slr_denominator(g, n, lat));
  std::vector<double> us;
  clone->begin_episode();
  for (int i = 0; i < reps; ++i) {
    if (i % (2 * g.num_tasks()) == 0) {
      env.reset_to_initial();
      clone->begin_episode();
    }
    const ActionDecision d = clone->decide(env, rng, false);
    const Clock::time_point t0 = Clock::now();
    nn::backward(d.log_prob);
    us.push_back(1e6 * seconds_since(t0));
    env.apply(d.action);
  }
  *calls = reps;
  return median(us);
}

}  // namespace

void run_train20(const Args& args, Report& report) {
  const double S = args.seconds;
  const DefaultLatencyModel lat;
  Setup s;
  SetupTime setup;
  setup.burst([&] { make_setup(args, s); });
  const InstanceSampler sampler = sampler_of(s.data);
  report.input_digest = kDigestBasis;
  for (const TaskGraph& g : s.data.graphs) {
    report.input_digest = digest_graph(g, report.input_digest);
  }
  const int E = s.topt.episodes;

  // One training from a fresh agent. With `batch_s`, also the thread CPU
  // seconds of each batch of kBatch episodes, ending after its optimizer step
  // (the trainer's on_episode hook fires then for every episode of the
  // batch), with the thread and process CPU time of them all added to `spent`.
  CpuTimes spent;
  SpeedProbe speed;
  auto train_once = [&](double* seconds, std::vector<double>* batch_s) {
    GiPHAgent agent = fresh_agent();
    TrainOptions topt = s.topt;
    const Clock::time_point t0 = Clock::now();
    CpuTimes mark = CpuTimes::now();
    if (batch_s != nullptr) {
      topt.on_episode = [&](int e) {
        if ((e + 1) % kBatch != 0) return;
        const CpuTimes now = CpuTimes::now();
        batch_s->push_back(now.thread - mark.thread);
        spent += now - mark;
        speed.tick();
        mark = CpuTimes::now();
      };
    }
    TrainStats st = train_reinforce(agent, lat, sampler, topt);
    *seconds = seconds_since(t0);
    return st;
  };

  // First run: the reference the others must equal; also the warm-up.
  double first_s = 0.0;
  const TrainStats ref = train_once(&first_s, nullptr);
  report.op(report.check(ref.episode_final.size() == static_cast<std::size_t>(E),
                         "one TrainStats entry per episode"));
  const double slr = last_batch_slr(ref);

  if (!args.trace) {
    // Best-of convention (as in the repo's perf benches), per batch: every
    // training repeats the same batches, and other jobs only ever slow one
    // down, so episodes/s is E over the sum of each batch's fastest time.
    const std::size_t nb = static_cast<std::size_t>(E / kBatch);
    std::vector<double> best(nb, 0.0), episode_ms;
    double total = 0.0;
    int runs = 0;
    while (runs < 3 || total < 0.9 * S) {
      double sec = 0.0;
      std::vector<double> batch_s;
      const TrainStats st = train_once(&sec, &batch_s);
      total += sec;
      ++runs;
      report.op(report.check(same_stats(st, ref) && batch_s.size() == nb,
                             "repeated training runs bitwise-equal"));
      for (std::size_t b = 0; b < std::min(nb, batch_s.size()); ++b) {
        best[b] = runs == 1 ? batch_s[b] : std::min(best[b], batch_s[b]);
        episode_ms.push_back(1e3 * batch_s[b] / kBatch);
      }
    }
    double best_s = 0.0;
    for (double b : best) best_s += b;
    const double eps = E / best_s;
    const double reference_eps = E / speed.to_reference(best_s);
    report.check_on_thread(spent, "training");
    setup.burst([&] {
      Setup t;
      make_setup(args, t);
    });
    report.add("setup_s", speed.to_reference(setup.seconds), "s", setup.runs);
    report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.add("throughput_per_s", reference_eps, "1/s",
               static_cast<std::int64_t>(runs) * E);
    report.info("episode_ms.p50", median(episode_ms), "ms",
                static_cast<std::int64_t>(episode_ms.size()));
    report.add("slr", slr, "ratio", kBatch);
    report.info("episodes_per_s", eps, "1/s", static_cast<std::int64_t>(runs) * E);
    report.info("trainings", runs, "count", runs);
    report.info("setup_s.measured", setup.seconds, "s", setup.runs);
    report.info("probe.slowdown", speed.slowdown(), "ratio", speed.runs());
    return;
  }

  // Traced run: untraced baseline, then decorated runs.
  double base_s = 0.0;
  const TrainStats base = train_once(&base_s, nullptr);
  report.op(report.check(same_stats(base, ref), "repeated training runs bitwise-equal"));

  Span decide;
  double tape_nodes = 0.0, traced_s = 0.0;
  int runs = 0;
  const SimCounters c0 = SimCounters::now();
  const Clock::time_point end = after_seconds(0.6 * S);
  do {
    GiPHAgent agent = fresh_agent();
    TimingPolicy wrap(agent);
    const Clock::time_point t0 = Clock::now();
    const TrainStats st = train_reinforce(wrap, lat, sampler, s.topt);
    traced_s += seconds_since(t0);
    decide.seconds += wrap.decide_span.seconds;
    decide.calls += wrap.decide_span.calls;
    tape_nodes += wrap.tape_nodes;
    ++runs;
    report.op(
        report.check(same_stats(st, ref), "traced TrainStats bitwise-equal to untraced"));
  } while (Clock::now() < end);
  const SimCounters sims = SimCounters::now() - c0;

  std::int64_t bw_calls = 0;
  const GiPHAgent probe = fresh_agent();
  const double bw_us = backward_us(s, probe, args.tiny ? 20 : 400, &bw_calls);

  const double episodes = static_cast<double>(runs) * E;
  const double episode_ms = 1e3 * traced_s / episodes;
  const double decide_ms_per_episode = 1e3 * decide.seconds / episodes;
  const auto n_ep = static_cast<std::int64_t>(episodes);
  report.add("core.agent.decide_us", decide.mean_us(), "us", decide.calls);
  report.add("nn.tape_nodes_per_decide", tape_nodes / static_cast<double>(decide.calls),
             "count", decide.calls);
  report.add("core.reinforce.episode_ms", episode_ms, "ms", n_ep);
  report.add("core.reinforce.rest_ms", episode_ms - decide_ms_per_episode, "ms", n_ep);
  report.add("nn.backward_us", bw_us, "us", bw_calls);
  add_sim_counters(report, sims, n_ep);
  report.add("trace.overhead_frac", (traced_s / runs) / base_s - 1.0, "ratio", runs);
  // The trainer's own work (env apply, backward, Adam) has no public seam
  // below train_reinforce, so it is the unattributed part of an episode.
  report.add("trace.unattributed_frac", 1.0 - decide.seconds / traced_s, "ratio", runs);
  report.info("slr", slr, "ratio", kBatch);
}

}  // namespace perfbench
