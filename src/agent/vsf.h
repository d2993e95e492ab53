// Virtual Subsystem Functions (paper Sec. 4.3.1). A VSF implements the
// action the agent takes for one operation of a control module (e.g. "UE
// downlink scheduling"). The master pushes implementations over the FlexRAN
// protocol (VSF updation); the agent caches them and links them to CMI
// slots at runtime (policy reconfiguration).
//
// Substitution note (DESIGN.md): the paper ships VSFs as shared libraries
// compiled against the agent's architecture and dlopen()s them. Here a
// pushed VSF names an implementation in a process-wide factory registry;
// the cache, swap and parameter semantics -- what Sec. 5.4 measures -- are
// identical, and a dlopen-based loader would slot in behind VsfFactory.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>

#include "agent/agent_api.h"
#include "lte/allocation.h"
#include "util/result.h"
#include "util/yaml_lite.h"

namespace flexran::agent {

/// Base of every VSF: runtime-reconfigurable named parameters (the
/// "parameters" section of a policy reconfiguration message, Fig. 3).
class Vsf {
 public:
  virtual ~Vsf() = default;

  /// Sets one parameter; unknown keys are an error so operator typos
  /// surface instead of silently doing nothing.
  virtual util::Status set_parameter(std::string_view key, const util::YamlNode& value) {
    (void)value;
    return util::Error::invalid_argument("unknown parameter: " + std::string(key));
  }

  /// Checks that set_parameter(key, value) would succeed WITHOUT applying
  /// it. Policy reconfiguration validates a whole document with this before
  /// mutating anything, so a bad trailing entry cannot leave a policy
  /// half-applied. Implementations overriding set_parameter must keep this
  /// in sync.
  virtual util::Status validate_parameter(std::string_view key,
                                          const util::YamlNode& value) const {
    (void)value;
    return util::Error::invalid_argument("unknown parameter: " + std::string(key));
  }

  /// Simulated execution cost of one invocation in microseconds. The guard
  /// charges this against the per-TTI deadline budget; the default of 0
  /// models a well-behaved VSF that finishes comfortably within the TTI.
  /// A wall-clock backstop in VsfGuard catches real (untyped) overruns.
  virtual std::int64_t declared_cost_us() const { return 0; }
};

/// MAC CMI slot: UE downlink scheduling. Returns the DCIs for `subframe`
/// (empty decision = nothing scheduled). A remote-stub implementation
/// returns the master's pushed decision instead of computing one.
class DlSchedulerVsf : public Vsf {
 public:
  virtual lte::SchedulingDecision schedule_dl(AgentApi& api, std::int64_t subframe) = 0;
  /// True for the remote stub: the master makes this slot's decisions, so
  /// the agent's master-silence fallback applies.
  virtual bool remote() const { return false; }
};

/// MAC CMI slot: UE uplink scheduling.
class UlSchedulerVsf : public Vsf {
 public:
  virtual lte::SchedulingDecision schedule_ul(AgentApi& api, std::int64_t subframe) = 0;
};

/// RRC CMI slot: handover trigger policy. Returns RNTI + target cell when a
/// handover should be initiated.
struct HandoverDecision {
  lte::Rnti rnti = lte::kInvalidRnti;
  lte::CellId target_cell = 0;
};
class HandoverPolicyVsf : public Vsf {
 public:
  virtual std::optional<HandoverDecision> evaluate(AgentApi& api, std::int64_t subframe) = 0;
};

/// Process-wide registry of VSF implementations, keyed by
/// (module, vsf, implementation) -- the stand-in for the shared-library
/// loader (see header comment).
class VsfFactory {
 public:
  using Factory = std::function<std::unique_ptr<Vsf>()>;

  static VsfFactory& instance();

  void register_implementation(std::string module, std::string vsf, std::string implementation,
                               Factory factory);
  util::Result<std::unique_ptr<Vsf>> create(std::string_view module, std::string_view vsf,
                                            std::string_view implementation) const;

 private:
  VsfFactory() = default;
  std::map<std::string, Factory> factories_;  // "module/vsf/impl"
};

/// Agent-side cache of pushed VSF instances (paper: "the pushed code is
/// initially stored in a cache memory at the agent side... the cache can
/// store many different implementations for a specific VSF, which the
/// master can swap at runtime").
///
/// The cache also tracks per-implementation health for the containment
/// layer (VsfGuard): consecutive failures accumulate until the guard
/// quarantines the entry. A quarantined implementation cannot be linked to
/// a CMI slot (policy reconfiguration to it is rejected) until the master
/// pushes a fresh VSF updation for the same name, which re-instantiates
/// the implementation and clears the quarantine.
class VsfCache {
 public:
  /// Instantiates and stores an implementation. Idempotent per name while
  /// healthy; re-pushing a quarantined name re-instantiates it and clears
  /// the quarantine (the paper's updation path doubles as the recovery
  /// path). Callers holding raw pointers to the old instance must re-link
  /// after a refresh.
  util::Status store(const std::string& module, const std::string& vsf,
                     const std::string& implementation);
  /// Cached instance lookup; nullptr if not pushed.
  Vsf* get(std::string_view module, std::string_view vsf,
           std::string_view implementation) const;
  std::size_t size() const { return cache_.size(); }

  /// Records one guard-detected failure; returns the new consecutive count.
  /// Unknown keys return 0 (agent-built instances outside the cache).
  std::uint32_t record_failure(std::string_view module, std::string_view vsf,
                               std::string_view implementation);
  /// Clears the consecutive-failure count after a clean invocation.
  void record_success(std::string_view module, std::string_view vsf,
                      std::string_view implementation);
  /// Marks an implementation quarantined (no-op on unknown keys).
  void quarantine(std::string_view module, std::string_view vsf,
                  std::string_view implementation);
  bool is_quarantined(std::string_view module, std::string_view vsf,
                      std::string_view implementation) const;

 private:
  struct Entry {
    std::unique_ptr<Vsf> instance;
    std::uint32_t consecutive_failures = 0;
    bool quarantined = false;
  };
  /// (module, vsf, implementation). Lookups compare string views, so the
  /// guard's per-TTI health checks build no key string.
  using Key = std::tuple<std::string, std::string, std::string>;
  using KeyView = std::tuple<std::string_view, std::string_view, std::string_view>;
  struct KeyLess {
    using is_transparent = void;
    static KeyView view(const Key& key) {
      return {std::get<0>(key), std::get<1>(key), std::get<2>(key)};
    }
    static const KeyView& view(const KeyView& key) { return key; }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return view(a) < view(b);
    }
  };

  Entry* find(std::string_view module, std::string_view vsf, std::string_view implementation);
  const Entry* find(std::string_view module, std::string_view vsf,
                    std::string_view implementation) const;

  std::map<Key, Entry, KeyLess> cache_;
};

/// Canonical cache/registry key.
std::string vsf_key(std::string_view module, std::string_view vsf,
                    std::string_view implementation);

}  // namespace flexran::agent
