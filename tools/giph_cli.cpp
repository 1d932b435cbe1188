// giph_cli - command-line workflow mirroring the paper artifact's main.py:
// generate datasets, train a policy, evaluate it, and place a single
// application (optionally printing the schedule as a Gantt chart).
//
//   giph_cli generate --out DIR [--graphs N] [--networks M] [--tasks T]
//                     [--devices D] [--seed S] [--params FILE]
//   giph_cli train    --data DIR --model FILE [--episodes E] [--variant V]
//                     [--lr X] [--gamma G] [--critic]
//                     [--noise X] [--seed S] [--checkpoint FILE]
//                     [--checkpoint-every K] [--resume]
//                     [--batch-episodes B] [--rollout-workers W]
//   giph_cli snapshot --out FILE [--model FILE] [--variant V] [--seed S]
//   giph_cli evaluate --data DIR --model FILE [--variant V] [--cases N]
//   giph_cli place    --graph FILE --network FILE [--model FILE] [--variant V]
//                     [--steps N] [--gantt] [--csv FILE]
//   giph_cli robustness [--seed S] [--tasks T] [--devices D]
//                     [--graph FILE --network FILE] [--model FILE] [--variant V]
//                     [--faults SPEC | --crashes N --leaves N --slowdowns N
//                      --degrades N --joins N] [--repair-budget N]
//   giph_cli dynamic  [--seed S] [--tasks T] [--graph FILE] [--model FILE]
//                     [--variant V] [--epochs N] [--vehicles N] [--bases N]
//                     [--range M] [--epoch-seconds S] [--repair-budget N]
//                     [--drift-budget N] [--threads N]
//   giph_cli scale    [--model FILE | --episodes E] [--variant V] [--seed S]
//                     [--train-tasks T] [--train-devices D] [--tasks T]
//                     [--devices D] [--clusters K] [--cases N] [--topk K]
//                     [--refine-rounds R]
//   giph_cli stream   [--seed S] [--graph FILE --network FILE] [--model FILE]
//                     [--variant V] [--frames F] [--hz H | --interval MS]
//                     [--jitter J] [--objective p99|throughput|makespan]
//                     [--steps N] [--csv FILE]
//
// Each subcommand accepts exactly the flags listed for it: any other flag
// (a typo such as --epsiodes) exits 1 with "error: unknown flag --epsiodes
// for train" instead of silently falling back to a default.
//
// The stream command runs the streaming (iterated-graph) scenario: F frames
// of the sensor-fusion pipeline (or an explicit --graph/--network instance)
// enter every 1000/--hz ms and pipeline through the devices. The selected
// --objective drives the placement search; the report compares the initial,
// makespan-optimized, and objective-optimized placements on one-shot makespan,
// steady-state throughput, and p50/p99 frame latency, and --csv exports the
// winning placement's per-frame latencies (write_stream_csv).
//
// The scale command is the scale tier's generalization experiment: train
// a policy at paper scale (or load one with --model), then evaluate it
// ZERO-SHOT on 10x-100x larger instances (default 1000 tasks on a 100-device
// sparse topology) through the hierarchical tier - partition_tasks groups the
// graph into --clusters clusters, the policy places the coarse cluster graph
// with sparse (top-k) gpNet candidates, and per-cluster refinement polishes
// the expanded placement - against flat HEFT on the same instances.
//
// The robustness command measures fault recovery: each placer (the GiPH
// agent, Random-task-eft, and HEFT) places a seeded synthetic instance, the
// placement is replayed under an injected fault plan, and the placer repairs
// it on the post-fault network - search policies warm-start from the damaged
// placement while HEFT reschedules from scratch. --faults accepts a spec like
// "crash:2@30,slow:1@10x3:60,link:0-3@20x4,join@50"; without it a plan is
// generated from the --crashes/--slowdowns/... counts with event times seeded
// inside the fault-free makespan horizon.
//
// The dynamic command runs the continuous-churn protocol: grid mobility
// (casestudy/churn.hpp) turns vehicle movement into a stream of epochs -
// devices joining and leaving coverage, link bandwidths drifting with
// distance - and every placer re-places online after each epoch
// (PlacementSearchEnv::rebase) against the frozen epoch-0 placement and a
// full HEFT reschedule per epoch. The report is seed-reproducible and
// identical for every --threads value.
//
// Variants: giph (default), giph-3, giph-5, giph-ne, graphsage-ne, ne-pol,
// task-eft.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "baselines/random_policies.hpp"
#include "casestudy/churn.hpp"
#include "casestudy/sensor_fusion.hpp"
#include "core/giph_agent.hpp"
#include "core/hierarchical.hpp"
#include "core/reinforce.hpp"
#include "eval/robustness_eval.hpp"
#include "gen/dataset.hpp"
#include "gen/params_io.hpp"
#include "graph/serialization.hpp"
#include "graph/topology.hpp"
#include "heft/heft.hpp"
#include "serve/snapshot.hpp"
#include "sim/faults.hpp"
#include "sim/trace.hpp"

using namespace giph;
namespace fs = std::filesystem;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  // Numbers must parse whole ("12x" is an error, not 12); a bad value names
  // its flag.
  int get_int(const std::string& key, int fallback) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    try {
      std::size_t used = 0;
      const int x = std::stoi(it->second, &used);
      if (used == it->second.size()) return x;
    } catch (const std::exception&) {
    }
    throw std::runtime_error("--" + key + ": expected an integer, got '" + it->second +
                             "'");
  }
  double get_double(const std::string& key, double fallback) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    try {
      std::size_t used = 0;
      const double x = std::stod(it->second, &used);
      if (used == it->second.size() && std::isfinite(x)) return x;
    } catch (const std::exception&) {
    }
    throw std::runtime_error("--" + key + ": expected a finite number, got '" +
                             it->second + "'");
  }
  bool has(const std::string& key) const { return options.count(key) > 0; }
  // Each subcommand first names every flag it reads (space-separated); any
  // other flag is an error, so a typo cannot silently fall back to a default.
  void check_flags(const std::string& reads) const {
    std::istringstream words(reads);
    const std::set<std::string> known{std::istream_iterator<std::string>(words), {}};
    for (const auto& option : options) {
      if (known.count(option.first) == 0) {
        throw std::runtime_error("unknown flag --" + option.first + " for " + command);
      }
    }
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc < 2) return args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::runtime_error("expected --option, got: " + key);
    }
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[key] = argv[++i];
    } else {
      args.options[key] = "1";  // boolean flag
    }
  }
  return args;
}

GiPHOptions variant_options(const std::string& variant, std::uint64_t seed) {
  GiPHOptions o;
  o.seed = seed;
  if (variant == "giph" || variant.empty()) {
    o.gnn = GnnKind::kGiPH;
  } else if (variant == "giph-3") {
    o.gnn = GnnKind::kGiPHK;
    o.k_steps = 3;
  } else if (variant == "giph-5") {
    o.gnn = GnnKind::kGiPHK;
    o.k_steps = 5;
  } else if (variant == "giph-ne") {
    o.gnn = GnnKind::kGiPHNE;
  } else if (variant == "graphsage-ne") {
    o.gnn = GnnKind::kGraphSAGE;
  } else if (variant == "ne-pol") {
    o.gnn = GnnKind::kNone;
  } else if (variant == "task-eft") {
    o.use_gpnet = false;
  } else {
    throw std::runtime_error("unknown variant: " + variant);
  }
  return o;
}

Dataset load_dataset(const std::string& dir) {
  Dataset ds;
  for (int i = 0;; ++i) {
    const fs::path p = fs::path(dir) / ("graph_" + std::to_string(i) + ".txt");
    if (!fs::exists(p)) break;
    ds.graphs.push_back(load_task_graph(p.string()));
  }
  for (int i = 0;; ++i) {
    const fs::path p = fs::path(dir) / ("network_" + std::to_string(i) + ".txt");
    if (!fs::exists(p)) break;
    ds.networks.push_back(load_device_network(p.string()));
  }
  if (ds.graphs.empty() || ds.networks.empty()) {
    throw std::runtime_error("no dataset found in " + dir +
                             " (expected graph_<i>.txt / network_<i>.txt)");
  }
  return ds;
}

int cmd_generate(const Args& args) {
  args.check_flags("out seed params tasks devices graphs networks");
  const std::string dir = args.get("out");
  if (dir.empty()) throw std::runtime_error("generate: --out DIR is required");
  fs::create_directories(dir);
  std::mt19937_64 rng(args.get_int("seed", 1));
  std::vector<TaskGraphParams> gps;
  std::vector<NetworkParams> nps;
  if (args.has("params")) {
    // Parameter file with (possibly multi-valued) generator settings, like
    // the paper artifact's parameters/ directory.
    const GeneratorConfig cfg = load_generator_config(args.get("params"));
    gps = cfg.graph_grid;
    nps = cfg.network_grid;
  } else {
    TaskGraphParams gp;
    gp.num_tasks = args.get_int("tasks", 14);
    NetworkParams np;
    np.num_devices = args.get_int("devices", 8);
    gps = {gp};
    nps = {np};
  }
  const Dataset ds = generate_dataset(gps, nps, args.get_int("graphs", 40),
                                      args.get_int("networks", 4), rng);
  for (std::size_t i = 0; i < ds.graphs.size(); ++i) {
    save_task_graph((fs::path(dir) / ("graph_" + std::to_string(i) + ".txt")).string(),
                    ds.graphs[i]);
  }
  for (std::size_t i = 0; i < ds.networks.size(); ++i) {
    save_device_network(
        (fs::path(dir) / ("network_" + std::to_string(i) + ".txt")).string(),
        ds.networks[i]);
  }
  std::cout << "wrote " << ds.graphs.size() << " graphs and " << ds.networks.size()
            << " networks to " << dir << "\n";
  return 0;
}

int cmd_train(const Args& args) {
  args.check_flags(
      "data model variant seed critic episodes lr gamma noise batch-episodes "
      "rollout-workers checkpoint checkpoint-every resume");
  const Dataset ds = load_dataset(args.get("data"));
  const std::string model = args.get("model");
  if (model.empty()) throw std::runtime_error("train: --model FILE is required");

  GiPHOptions agent_options =
      variant_options(args.get("variant", "giph"), args.get_int("seed", 1));
  agent_options.use_critic = args.has("critic");
  GiPHAgent agent(agent_options);
  const DefaultLatencyModel lat;
  TrainOptions topt;
  topt.episodes = args.get_int("episodes", 300);
  topt.lr = args.get_double("lr", 0.003);
  topt.gamma = args.get_double("gamma", 0.1);
  topt.discount_state_weight = false;
  topt.noise = args.get_double("noise", 0.0);
  topt.batch_episodes = args.get_int("batch-episodes", 1);
  topt.rollout_workers = args.get_int("rollout-workers", 1);
  topt.seed = args.get_int("seed", 1) + 1;
  topt.checkpoint_path = args.get("checkpoint");
  topt.checkpoint_every = args.get_int("checkpoint-every", topt.checkpoint_path.empty() ? 0 : 25);
  topt.resume = args.has("resume");
  if (topt.resume && topt.checkpoint_path.empty()) {
    throw std::runtime_error("train: --resume requires --checkpoint FILE");
  }
  int last_percent = -1;
  topt.on_episode = [&](int ep) {
    const int percent = 100 * (ep + 1) / topt.episodes;
    if (percent / 10 != last_percent / 10) {
      std::cout << "trained " << percent << "%\n" << std::flush;
      last_percent = percent;
    }
  };
  train_reinforce(agent, lat,
                  [&ds](std::mt19937_64& r) {
                    std::uniform_int_distribution<std::size_t> gi(0, ds.graphs.size() - 1);
                    std::uniform_int_distribution<std::size_t> ni(0, ds.networks.size() - 1);
                    return ProblemInstance{&ds.graphs[gi(r)], &ds.networks[ni(r)]};
                  },
                  topt);
  agent.save(model);
  std::cout << "model (" << agent.name() << ", "
            << agent.registry().num_scalars() << " parameters) saved to " << model
            << "\n";
  return 0;
}

int cmd_snapshot(const Args& args) {
  args.check_flags("out model variant seed");
  GiPHAgent agent(variant_options(args.get("variant", "giph"), args.get_int("seed", 1)));
  if (args.has("model")) agent.load(args.get("model"));
  const std::string out = args.get("out");
  if (out.empty()) throw std::runtime_error("snapshot: --out FILE is required");
  serve::save_policy_snapshot(out, agent);
  std::cout << "policy snapshot (" << agent.name() << ", "
            << agent.registry().num_scalars() << " parameters) saved to " << out
            << "\n";
  return 0;
}

int cmd_evaluate(const Args& args) {
  args.check_flags("data model variant cases seed");
  const Dataset ds = load_dataset(args.get("data"));
  GiPHAgent agent(variant_options(args.get("variant", "giph"), 1));
  if (args.has("model")) agent.load(args.get("model"));
  const DefaultLatencyModel lat;

  const int cases = args.get_int("cases", 50);
  std::mt19937_64 rng(args.get_int("seed", 9));
  double agent_slr = 0.0, heft_slr = 0.0, init_slr = 0.0;
  for (int i = 0; i < cases; ++i) {
    const TaskGraph& g = ds.graphs[i % ds.graphs.size()];
    const DeviceNetwork& n = ds.networks[i % ds.networks.size()];
    const double denom = slr_denominator(g, n, lat);
    const Placement init = random_placement(g, n, rng);
    PlacementSearchEnv env(g, n, lat, makespan_objective(lat), init, denom);
    init_slr += env.objective();
    run_search(agent, env, 2 * g.num_tasks(), rng);
    agent_slr += env.best_objective();
    heft_slr += makespan(g, n, heft_schedule(g, n, lat).placement, lat) / denom;
  }
  std::cout << "cases: " << cases << "\n"
            << "average initial SLR: " << init_slr / cases << "\n"
            << "average " << agent.name() << " SLR: " << agent_slr / cases << "\n"
            << "average HEFT SLR: " << heft_slr / cases << "\n";
  return 0;
}

int cmd_place(const Args& args) {
  args.check_flags("graph network model variant seed steps gantt csv");
  const TaskGraph g = load_task_graph(args.get("graph"));
  const DeviceNetwork n = load_device_network(args.get("network"));
  GiPHAgent agent(variant_options(args.get("variant", "giph"), 1));
  if (args.has("model")) agent.load(args.get("model"));
  const DefaultLatencyModel lat;

  std::mt19937_64 rng(args.get_int("seed", 9));
  const double denom = slr_denominator(g, n, lat);
  PlacementSearchEnv env(g, n, lat, makespan_objective(lat),
                         random_placement(g, n, rng), denom);
  const int steps = args.get_int("steps", 2 * g.num_tasks());
  run_search(agent, env, steps, rng);
  const Placement& best = env.best_placement();
  const Schedule sched = simulate(g, n, best, lat);
  std::cout << "makespan: " << sched.makespan << "  (SLR " << env.best_objective()
            << ")\nplacement:";
  for (int v = 0; v < g.num_tasks(); ++v) std::cout << " " << best.device_of(v);
  std::cout << "\n";
  if (args.has("gantt")) std::cout << ascii_gantt(g, n, best, sched);
  if (args.has("csv")) {
    std::ofstream out(args.get("csv"));
    write_schedule_csv(out, g, n, best, sched);
    std::cout << "schedule written to " << args.get("csv") << "\n";
  }
  return 0;
}

int cmd_robustness(const Args& args) {
  args.check_flags(
      "seed tasks devices graph network model variant faults crashes leaves "
      "slowdowns degrades joins repair-budget");
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  std::mt19937_64 rng(seed);
  TaskGraph g;
  DeviceNetwork n;
  if (args.has("graph") && args.has("network")) {
    g = load_task_graph(args.get("graph"));
    n = load_device_network(args.get("network"));
  } else {
    TaskGraphParams gp;
    gp.num_tasks = args.get_int("tasks", 14);
    NetworkParams np;
    np.num_devices = args.get_int("devices", 8);
    g = generate_task_graph(gp, rng);
    n = generate_device_network(np, rng);
    ensure_feasible(g, n, rng);
  }
  const DefaultLatencyModel lat;

  GiPHAgent agent(variant_options(args.get("variant", "giph"), seed));
  if (args.has("model")) agent.load(args.get("model"));
  RandomTaskEftPolicy random_eft;

  FaultPlan plan;
  if (args.has("faults")) {
    plan = parse_fault_plan(args.get("faults"));
  } else {
    // Seed event times inside the fault-free horizon so the plan perturbs
    // the run regardless of the instance's time scale.
    FaultPlanParams fp;
    fp.horizon =
        std::max(makespan(g, n, heft_schedule(g, n, lat).placement, lat), 1e-9);
    fp.crashes = args.get_int("crashes", 1);
    fp.leaves = args.get_int("leaves", 0);
    fp.slowdowns = args.get_int("slowdowns", 1);
    fp.link_degrades = args.get_int("degrades", 1);
    fp.joins = args.get_int("joins", 0);
    plan = generate_fault_plan(n, fp, rng);
  }

  eval::RobustnessOptions ropt;
  ropt.seed = seed + 1;
  ropt.repair_budget = args.get_int("repair-budget", 0);
  const eval::RobustnessReport report = eval::evaluate_robustness(
      g, n, lat, plan, {{agent.name(), &agent}, {random_eft.name(), &random_eft}}, ropt);
  std::cout << "instance: " << g.num_tasks() << " tasks, " << n.num_devices()
            << " devices (seed " << seed << ")\n\n"
            << eval::format_report(report);
  return 0;
}

int cmd_dynamic(const Args& args) {
  args.check_flags(
      "seed tasks graph model variant epochs vehicles bases range epoch-seconds "
      "repair-budget drift-budget threads");
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  std::mt19937_64 rng(seed);
  TaskGraph g;
  if (args.has("graph")) {
    g = load_task_graph(args.get("graph"));
  } else {
    TaskGraphParams gp;
    gp.num_tasks = args.get_int("tasks", 12);
    g = generate_task_graph(gp, rng);
  }

  casestudy::ChurnScriptParams cp;
  cp.mobility.num_vehicles = args.get_int("vehicles", 6);
  cp.mobility.seed = seed;
  cp.base_devices = args.get_int("bases", 3);
  cp.range_m = args.get_double("range", 250.0);
  cp.epoch_s = args.get_double("epoch-seconds", 10.0);
  cp.epochs = args.get_int("epochs", 12);
  cp.seed = seed;
  const eval::ChurnScript script = casestudy::generate_churn_script(cp);
  int joins = 0, leaves = 0;
  for (std::size_t t = 1; t < script.epochs.size(); ++t) {
    for (std::size_t k = 0; k < script.epochs[t].up.size(); ++k) {
      if (script.epochs[t].up[k] && !script.epochs[t - 1].up[k]) ++joins;
      if (!script.epochs[t].up[k] && script.epochs[t - 1].up[k]) ++leaves;
    }
  }

  const DefaultLatencyModel lat;
  GiPHAgent agent(variant_options(args.get("variant", "giph"), seed));
  if (args.has("model")) agent.load(args.get("model"));
  RandomTaskEftPolicy random_eft;

  eval::ChurnOptions copt;
  copt.seed = seed + 1;
  copt.repair_budget = args.get_int("repair-budget", 0);
  copt.drift_budget = args.get_int("drift-budget", 0);
  copt.threads = args.get_int("threads", 1);
  const eval::ChurnReport report = eval::evaluate_churn(
      g, script, lat, {{agent.name(), &agent}, {random_eft.name(), &random_eft}}, copt);
  std::cout << "instance: " << g.num_tasks() << " tasks over a universe of "
            << script.epochs.front().network.num_devices() << " devices ("
            << cp.base_devices << " base + " << cp.mobility.num_vehicles
            << " mobile), " << report.num_epochs << " epochs, " << joins
            << " joins / " << leaves << " leaves (seed " << seed << ")\n\n"
            << eval::format_churn_report(report);
  return 0;
}

int cmd_scale(const Args& args) {
  args.check_flags(
      "model episodes variant seed train-tasks train-devices tasks devices "
      "clusters cases topk refine-rounds");
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const DefaultLatencyModel lat;

  // 1. A policy trained at paper scale (zero-shot transfer is the point:
  //    nothing below ever trains on the large instances).
  GiPHOptions aopt = variant_options(args.get("variant", "giph"), seed);
  aopt.gpnet_topk = args.get_int("topk", 8);
  GiPHAgent agent(aopt);
  if (args.has("model")) {
    agent.load(args.get("model"));
    std::cout << "loaded " << agent.name() << " from " << args.get("model") << "\n";
  } else {
    std::mt19937_64 rng(seed);
    TaskGraphParams gp;
    gp.num_tasks = args.get_int("train-tasks", 20);
    NetworkParams np;
    np.num_devices = args.get_int("train-devices", 8);
    const Dataset ds = generate_dataset({gp}, {np}, 20, 4, rng);
    TrainOptions topt;
    topt.episodes = args.get_int("episodes", 100);
    topt.lr = 0.003;
    topt.gamma = 0.1;
    topt.discount_state_weight = false;
    topt.seed = seed + 1;
    std::cout << "training " << agent.name() << " at paper scale (" << gp.num_tasks
              << " tasks, " << np.num_devices << " devices, " << topt.episodes
              << " episodes)...\n"
              << std::flush;
    train_reinforce(agent, lat,
                    [&ds](std::mt19937_64& r) {
                      std::uniform_int_distribution<std::size_t> gi(0, ds.graphs.size() - 1);
                      std::uniform_int_distribution<std::size_t> ni(0, ds.networks.size() - 1);
                      return ProblemInstance{&ds.graphs[gi(r)], &ds.networks[ni(r)]};
                    },
                    topt);
  }

  // 2. Zero-shot evaluation at 10x-100x scale on sparse topologies.
  const int tasks = args.get_int("tasks", 1000);
  const int devices = args.get_int("devices", 100);
  const int cases = args.get_int("cases", 3);
  HierarchicalOptions hopt;
  hopt.partition.num_clusters = args.get_int("clusters", std::max(8, tasks / 20));
  hopt.refine_rounds = args.get_int("refine-rounds", 3);
  std::cout << "zero-shot evaluation: " << cases << " instances of " << tasks
            << " tasks on " << devices << "-device sparse topologies, "
            << hopt.partition.num_clusters << " target clusters\n\n"
            << "  case   clusters   hier SLR   HEFT SLR   hier/HEFT   seconds\n";

  double sum_hier = 0.0, sum_heft = 0.0, sum_sec = 0.0;
  for (int i = 0; i < cases; ++i) {
    std::mt19937_64 rng(seed + 100 + i);
    TaskGraphParams gp;
    gp.num_tasks = tasks;
    gp.alpha = 0.8;
    gp.p_connect = 2.0 / tasks;  // sparse, dataflow-like
    const TaskGraph g = generate_task_graph(gp, rng);
    NetworkParams np;
    np.num_devices = devices;
    DeviceNetwork n = generate_device_network(np, rng);
    std::vector<PhysicalLink> links;
    std::uniform_real_distribution<double> bw(20.0, 80.0);
    std::uniform_real_distribution<double> dl(0.1, 2.0);
    for (int d = 1; d < devices; ++d) {
      links.push_back({static_cast<int>(rng() % static_cast<std::uint64_t>(d)), d,
                       bw(rng), dl(rng), true});
    }
    for (int c = 0; c < 2 * devices; ++c) {
      const int a = static_cast<int>(rng() % devices);
      const int b = static_cast<int>(rng() % devices);
      if (a != b) links.push_back({a, b, bw(rng), dl(rng), true});
    }
    apply_topology(n, links);
    ensure_feasible(g, n, rng);

    HierarchicalPlacer placer(g, n, lat, hopt);
    HierarchicalStats stats;
    std::mt19937_64 place_rng(seed + 200 + i);
    const auto t0 = std::chrono::steady_clock::now();
    const Placement hier = placer.place(agent, place_rng, &stats);
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (!is_feasible(g, n, hier)) throw std::runtime_error("scale: infeasible result");
    const double heft_slr = placer.objective_of(heft_schedule(g, n, lat).placement);
    sum_hier += stats.refined_objective;
    sum_heft += heft_slr;
    sum_sec += sec;
    std::printf("  %4d %10d %10.3f %10.3f %11.3f %9.2f\n", i, stats.num_clusters,
                stats.refined_objective, heft_slr, stats.refined_objective / heft_slr,
                sec);
  }
  std::printf("  mean %10s %10.3f %10.3f %11.3f %9.2f\n", "", sum_hier / cases,
              sum_heft / cases, sum_hier / sum_heft, sum_sec / cases);
  std::cout << "\n(training scale -> evaluation scale: "
            << args.get_int("train-tasks", 20) << " -> " << tasks << " tasks, x"
            << tasks / std::max(1, args.get_int("train-tasks", 20)) << ")\n";
  return 0;
}

int cmd_stream(const Args& args) {
  args.check_flags(
      "seed graph network model variant frames hz interval jitter objective steps csv");
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const DefaultLatencyModel lat;

  // Instance: an explicit graph/network pair, or the first populated
  // sensor-fusion snapshot (the flagship streaming scenario).
  TaskGraph g;
  DeviceNetwork n;
  StreamOptions sopt;
  sopt.frames = args.get_int("frames", 32);
  if (args.has("graph") && args.has("network")) {
    g = load_task_graph(args.get("graph"));
    n = load_device_network(args.get("network"));
    sopt.interval = args.get_double("interval", 1000.0 / args.get_double("hz", 10.0));
  } else {
    casestudy::CaseStudyParams params;
    params.seed = seed;
    casestudy::SensorFusionWorld world(params);
    std::optional<casestudy::SensorFusionCase> c;
    for (int snap = 0; snap < 64 && !c; ++snap) c = world.next_case();
    if (!c) throw std::runtime_error("stream: no populated sensor-fusion snapshot");
    g = std::move(c->graph);
    n = std::move(c->network);
    sopt = casestudy::streaming_options(*c, sopt.frames);
    if (args.has("interval")) sopt.interval = args.get_double("interval", sopt.interval);
    if (args.has("hz")) sopt.interval = 1000.0 / args.get_double("hz", 10.0);
  }
  std::mt19937_64 jitter_rng(seed + 77);
  sopt.arrival_jitter = args.get_double("jitter", 0.0);
  if (sopt.arrival_jitter > 0.0) sopt.sim.rng = &jitter_rng;

  const std::string objective = args.get("objective", "p99");
  const auto make_objective = [&](const std::string& kind) -> ScheduleObjective {
    if (kind == "p99") return streaming_p99_objective(lat, sopt);
    if (kind == "throughput") return streaming_throughput_objective(lat, sopt);
    if (kind == "makespan") return makespan_objective(lat);
    throw std::runtime_error("stream: unknown --objective " + kind +
                             " (p99|throughput|makespan)");
  };

  GiPHAgent agent(variant_options(args.get("variant", "giph"), seed));
  if (args.has("model")) agent.load(args.get("model"));
  const int steps = args.get_int("steps", 2 * g.num_tasks());

  // Same initial placement for both searches, so the comparison isolates the
  // objective (raw values, denominator 1: SLR does not normalize a p99).
  std::mt19937_64 rng(seed + 9);
  const Placement init = random_placement(g, n, rng);
  const auto optimize = [&](const std::string& kind) {
    std::mt19937_64 search_rng(seed + 10);
    PlacementSearchEnv env(g, n, lat, make_objective(kind), init, 1.0);
    run_search(agent, env, steps, search_rng);
    return env.best_placement();
  };
  const Placement makespan_best = optimize("makespan");
  const Placement objective_best =
      objective == "makespan" ? makespan_best : optimize(objective);

  std::cout << "instance: " << g.num_tasks() << " tasks, " << n.num_devices()
            << " devices; " << sopt.frames << " frames every " << sopt.interval
            << " ms (jitter " << sopt.arrival_jitter << "), search objective "
            << objective << "\n\n"
            << "  placement            makespan  throughput     p50       p99\n";
  const auto report = [&](const char* name, const Placement& p) {
    StreamOptions eval_opt = sopt;  // fresh jitter stream per report row
    std::mt19937_64 eval_rng(seed + 78);
    if (eval_opt.arrival_jitter > 0.0) eval_opt.sim.rng = &eval_rng;
    const StreamResult r = simulate_streaming(g, n, p, lat, eval_opt);
    std::printf("  %-18s %10.3f %11.5f %8.3f %9.3f\n", name,
                simulate(g, n, p, lat).makespan, r.throughput, r.p50_latency,
                r.p99_latency);
    return r;
  };
  report("initial", init);
  report("makespan-search", makespan_best);
  const StreamResult best = report((objective + "-search").c_str(), objective_best);

  if (args.has("csv")) {
    std::ofstream out(args.get("csv"));
    write_stream_csv(out, best);
    std::cout << "\nper-frame latencies written to " << args.get("csv") << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.command == "generate") return cmd_generate(args);
    if (args.command == "train") return cmd_train(args);
    if (args.command == "snapshot") return cmd_snapshot(args);
    if (args.command == "evaluate") return cmd_evaluate(args);
    if (args.command == "place") return cmd_place(args);
    if (args.command == "robustness") return cmd_robustness(args);
    if (args.command == "dynamic") return cmd_dynamic(args);
    if (args.command == "scale") return cmd_scale(args);
    if (args.command == "stream") return cmd_stream(args);
    std::cerr << "usage: giph_cli {generate|train|snapshot|evaluate|place|"
                 "robustness|dynamic|scale|stream} [--options]\n"
                 "see the header of tools/giph_cli.cpp for details\n";
    return args.command.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
