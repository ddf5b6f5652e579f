#include "skute/scenario/spec.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

namespace skute::scenario {

namespace {

bool HasPrefix(const char* arg, const char* prefix) {
  return std::strncmp(arg, prefix, std::strlen(prefix)) == 0;
}

}  // namespace

RunOverrides ParseOverrides(int argc, char** argv,
                            const std::vector<std::string>& extra_exact,
                            const std::vector<std::string>& extra_prefix) {
  RunOverrides o;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (HasPrefix(arg, "--epochs=")) {
      o.epochs = std::atoi(arg + 9);
    } else if (HasPrefix(arg, "--seed=")) {
      o.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (HasPrefix(arg, "--sample=")) {
      o.sample_every = std::atoi(arg + 9);
    } else if (std::strcmp(arg, "--csv") == 0) {
      o.full_csv = true;
    } else if (HasPrefix(arg, "--threads=")) {
      o.threads = std::atoi(arg + 10);
    } else if (HasPrefix(arg, "--backend=")) {
      o.backend = arg + 10;
    } else if (HasPrefix(arg, "--placement=")) {
      o.placement = arg + 12;
    } else if (HasPrefix(arg, "--out=")) {
      o.out = arg + 6;
    } else if (HasPrefix(arg, "--trace=")) {
      o.trace = arg + 8;
    } else if (HasPrefix(arg, "--metrics-json=")) {
      o.metrics_json = arg + 15;
    } else if (HasPrefix(arg, "--real-data=")) {
      o.real_data = static_cast<uint32_t>(std::atoi(arg + 12));
    } else if (HasPrefix(arg, "--io-threads=")) {
      o.io_threads = std::atoi(arg + 13);
    } else if (std::strcmp(arg, "--serve") == 0) {
      o.serve_port = 0;  // ephemeral port, printed at startup
    } else if (HasPrefix(arg, "--serve=")) {
      o.serve_port = std::atoi(arg + 8);
    } else if (HasPrefix(arg, "--net-clients=")) {
      o.net_clients = std::atoi(arg + 14);
    } else if (HasPrefix(arg, "--fault=")) {
      o.fault = arg + 8;
    } else if (HasPrefix(arg, "--")) {
      bool known = false;
      for (const std::string& exact : extra_exact) {
        if (exact == arg) known = true;
      }
      for (const std::string& prefix : extra_prefix) {
        if (HasPrefix(arg, prefix.c_str())) known = true;
      }
      if (!known) {
        std::fprintf(stderr, "warning: unrecognized flag '%s' (ignored)\n",
                     arg);
      }
    }
  }
  return o;
}

BackendConfig BackendConfigFromFlag(const std::string& flag,
                                    const std::string& run_tag) {
  BackendConfig config;
  if (flag.empty()) return config;
  auto kind = ParseBackendKind(flag);
  if (!kind.ok()) {
    std::fprintf(stderr, "warning: %s; using the memory backend\n",
                 std::string(kind.status().message()).c_str());
    return config;
  }
  config.kind = *kind;
  if (config.kind == BackendKind::kFileSegment) {
    // Every created dir is removed at process exit, so repeated runs
    // never accumulate state under /tmp.
    static std::vector<std::string>* dirs = [] {
      auto* list = new std::vector<std::string>();
      std::atexit([] {
        for (const std::string& d : *dirs) {
          std::error_code ec;
          std::filesystem::remove_all(d, ec);
        }
      });
      return list;
    }();
    static int run_counter = 0;
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("skute_bench_" + run_tag + "_" + std::to_string(::getpid()) +
          "_" + std::to_string(run_counter++)))
            .string();
    std::filesystem::create_directories(dir);
    dirs->push_back(dir);
    config.data_dir = dir;
    std::fprintf(stderr, "file backend state: %s (removed at exit)\n",
                 dir.c_str());
  }
  return config;
}

void ApplyOverrides(SimConfig* config, const RunOverrides& overrides,
                    const std::string& run_tag) {
  config->seed = overrides.seed;
  if (!overrides.backend.empty()) {
    config->backend = BackendConfigFromFlag(overrides.backend, run_tag);
  }
  if (overrides.threads > 0) {
    config->store.epoch.threads = overrides.threads;
  }
  if (overrides.real_data > 0) {
    config->store.track_real_data = true;
  }
  if (overrides.serve_port >= 0) {
    // Wire PUTs must round-trip real bytes; without real-data tracking
    // every served GET would answer "synthetic" even for live writes.
    config->store.track_real_data = true;
  }
  if (overrides.io_threads >= 0) {
    config->store.durability.io_threads = overrides.io_threads;
  }
  if (!overrides.placement.empty()) {
    if (overrides.placement == "economic") {
      config->placement = PlacementKind::kEconomic;
    } else if (overrides.placement == "static" ||
               overrides.placement == "static-successor") {
      config->placement = PlacementKind::kStaticSuccessor;
    } else {
      std::fprintf(stderr,
                   "warning: unknown placement '%s' (want economic|static); "
                   "keeping the scenario default\n",
                   overrides.placement.c_str());
    }
  }
}

void WarnIgnoredFlag(const char* flag, const char* reason) {
  std::fprintf(stderr, "warning: %s is not honored by this scenario (%s)\n",
               flag, reason);
}

RateSpec RateSpec::Constant(double rate) {
  RateSpec spec;
  spec.kind = Kind::kConstant;
  spec.base = rate;
  return spec;
}

RateSpec RateSpec::Slashdot(double base, double peak, Epoch start,
                            Epoch ramp, Epoch decay) {
  RateSpec spec;
  spec.kind = Kind::kSlashdot;
  spec.base = base;
  spec.peak = peak;
  spec.start = start;
  spec.ramp = ramp;
  spec.decay = decay;
  return spec;
}

RateSpec RateSpec::Steps(double initial,
                         std::vector<std::pair<Epoch, double>> steps) {
  RateSpec spec;
  spec.kind = Kind::kStep;
  spec.base = initial;
  spec.steps = std::move(steps);
  return spec;
}

std::unique_ptr<RateSchedule> RateSpec::Build() const {
  switch (kind) {
    case Kind::kConfigDefault:
      return nullptr;
    case Kind::kConstant:
      return std::make_unique<ConstantSchedule>(base);
    case Kind::kSlashdot:
      return std::make_unique<SlashdotSchedule>(base, peak, start, ramp,
                                                decay);
    case Kind::kStep: {
      auto schedule = std::make_unique<StepSchedule>(base);
      for (const auto& [at, rate] : steps) schedule->AddStep(at, rate);
      return schedule;
    }
  }
  return nullptr;
}

}  // namespace skute::scenario
