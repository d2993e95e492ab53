// eNodeB Control Modules (paper Fig. 2): one per access-stratum protocol
// area, each exposing a Control Module Interface (CMI) -- a set of named
// VSF slots. Policy reconfiguration messages address slots by
// (module name, slot name) and link them to implementations held in the
// agent's VSF cache; parameters are forwarded to the active implementation.
// As in the paper's prototype, the modules provided are MAC (scheduling)
// and RRC (mobility); new modules extend ControlModule.
#pragma once

#include <map>
#include <span>
#include <string>

#include "agent/vsf.h"

namespace flexran::agent {

class ControlModule {
 public:
  ControlModule(std::string name, VsfCache& cache) : name_(std::move(name)), cache_(&cache) {}
  virtual ~ControlModule() = default;
  ControlModule(const ControlModule&) = delete;
  ControlModule& operator=(const ControlModule&) = delete;

  const std::string& name() const { return name_; }

  /// Links a CMI slot to a cached implementation ("behavior" in Fig. 3).
  /// This is the hot path Sec. 5.4 measures: a cache lookup, a type check
  /// and a pointer swap. Quarantined implementations are rejected until the
  /// master pushes a fresh VSF updation (see VsfCache).
  util::Status set_behavior(const std::string& slot, const std::string& implementation);

  /// Checks that set_behavior(slot, implementation) would succeed -- slot
  /// exists, implementation cached, not quarantined, right CMI type --
  /// without swapping anything. First phase of atomic policy application.
  util::Status validate_behavior(const std::string& slot,
                                 const std::string& implementation) const;

  /// Forwards a parameter to the slot's active implementation.
  util::Status set_parameter(const std::string& slot, std::string_view key,
                             const util::YamlNode& value);

  /// Checks a parameter against the implementation that would be active
  /// after linking `behavior` (current implementation when `behavior` is
  /// empty), without applying it.
  util::Status validate_parameter(const std::string& slot, const std::string& behavior,
                                  std::string_view key, const util::YamlNode& value) const;

  /// Name of the active implementation for a slot ("" = slot empty).
  const std::string& active_implementation(std::string_view slot) const;
  /// Active instance for a slot (nullptr = slot empty / unknown). Used by
  /// VsfGuard, which needs the untyped instance for health accounting.
  Vsf* active_vsf(std::string_view slot) const {
    const Slot* s = this->slot(slot);
    return s == nullptr ? nullptr : s->vsf;
  }
  bool has_slot(std::string_view slot) const { return slots_.contains(slot); }

 protected:
  struct Slot {
    std::string impl_name;
    Vsf* vsf = nullptr;  // owned by the VsfCache
  };

  void declare_slot(const std::string& slot) { slots_.emplace(slot, Slot{}); }
  /// Per-slot type check: returns the error when `vsf` is not the right
  /// CMI type for `slot`.
  virtual util::Status validate(const std::string& slot, Vsf& vsf) const = 0;
  /// Hook so subclasses can refresh typed pointers after a swap.
  virtual void on_behavior_changed(const std::string& slot, Vsf* vsf) = 0;

  const Slot* slot(std::string_view name) const {
    auto it = slots_.find(name);
    return it == slots_.end() ? nullptr : &it->second;
  }

 private:
  std::string name_;
  VsfCache* cache_;
  std::map<std::string, Slot, std::less<>> slots_;
};

/// MAC/RLC control module: downlink + uplink UE scheduling slots.
class MacControlModule final : public ControlModule {
 public:
  static constexpr const char* kName = "mac";
  static constexpr const char* kDlSchedulerSlot = "dl_ue_scheduler";
  static constexpr const char* kUlSchedulerSlot = "ul_ue_scheduler";

  explicit MacControlModule(VsfCache& cache);

  DlSchedulerVsf* dl_scheduler() const { return dl_scheduler_; }

 protected:
  util::Status validate(const std::string& slot, Vsf& vsf) const override;
  void on_behavior_changed(const std::string& slot, Vsf* vsf) override;

 private:
  DlSchedulerVsf* dl_scheduler_ = nullptr;
};

/// RRC control module: handover trigger policy slot.
class RrcControlModule final : public ControlModule {
 public:
  static constexpr const char* kName = "rrc";
  static constexpr const char* kHandoverPolicySlot = "handover_policy";

  explicit RrcControlModule(VsfCache& cache);

  HandoverPolicyVsf* handover_policy() const { return handover_policy_; }

 protected:
  util::Status validate(const std::string& slot, Vsf& vsf) const override;
  void on_behavior_changed(const std::string& slot, Vsf* vsf) override;

 private:
  HandoverPolicyVsf* handover_policy_ = nullptr;
};

/// Applies a policy-reconfiguration document (paper Fig. 3) to a set of
/// control modules. Technology-agnostic -- the same function drives LTE
/// modules inside the Agent and any other RAT's modules (see src/wifi):
/// the YAML names modules and slots, the modules do the type checking.
///
/// Application is atomic: the whole document is validated first (module
/// and slot names, behavior is a cached/non-quarantined scalar of the
/// right CMI type, every parameter accepted by its target implementation)
/// and only then applied, so a malformed or rejected document leaves the
/// previous policy fully active.
util::Status apply_policy_document(const util::YamlNode& root,
                                   std::span<ControlModule* const> modules);
util::Status apply_policy_yaml(const std::string& yaml,
                               std::span<ControlModule* const> modules);

}  // namespace flexran::agent
