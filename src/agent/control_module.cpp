#include "agent/control_module.h"

namespace flexran::agent {

util::Status ControlModule::set_behavior(const std::string& slot_name,
                                         const std::string& implementation) {
  auto it = slots_.find(slot_name);
  if (it == slots_.end()) {
    return util::Error::not_found("module " + name_ + " has no slot " + slot_name);
  }
  if (cache_->is_quarantined(name_, slot_name, implementation)) {
    return util::Error::conflict("implementation quarantined: " +
                                 vsf_key(name_, slot_name, implementation) +
                                 " (push a fresh VSF updation to restore)");
  }
  Vsf* vsf = cache_->get(name_, slot_name, implementation);
  if (vsf == nullptr) {
    return util::Error::not_found("implementation not in cache: " +
                                  vsf_key(name_, slot_name, implementation));
  }
  auto valid = validate(slot_name, *vsf);
  if (!valid.ok()) return valid;
  it->second.impl_name = implementation;
  it->second.vsf = vsf;
  on_behavior_changed(slot_name, vsf);
  return {};
}

util::Status ControlModule::validate_behavior(const std::string& slot_name,
                                              const std::string& implementation) const {
  if (!slots_.contains(slot_name)) {
    return util::Error::not_found("module " + name_ + " has no slot " + slot_name);
  }
  if (cache_->is_quarantined(name_, slot_name, implementation)) {
    return util::Error::conflict("implementation quarantined: " +
                                 vsf_key(name_, slot_name, implementation) +
                                 " (push a fresh VSF updation to restore)");
  }
  Vsf* vsf = cache_->get(name_, slot_name, implementation);
  if (vsf == nullptr) {
    return util::Error::not_found("implementation not in cache: " +
                                  vsf_key(name_, slot_name, implementation));
  }
  return validate(slot_name, *vsf);
}

util::Status ControlModule::set_parameter(const std::string& slot_name, std::string_view key,
                                          const util::YamlNode& value) {
  auto it = slots_.find(slot_name);
  if (it == slots_.end()) {
    return util::Error::not_found("module " + name_ + " has no slot " + slot_name);
  }
  if (it->second.vsf == nullptr) {
    return util::Error::conflict("slot " + slot_name + " has no active implementation");
  }
  return it->second.vsf->set_parameter(key, value);
}

util::Status ControlModule::validate_parameter(const std::string& slot_name,
                                               const std::string& behavior,
                                               std::string_view key,
                                               const util::YamlNode& value) const {
  const Slot* s = slot(slot_name);
  if (s == nullptr) {
    return util::Error::not_found("module " + name_ + " has no slot " + slot_name);
  }
  const Vsf* target =
      behavior.empty() ? s->vsf : cache_->get(name_, slot_name, behavior);
  if (target == nullptr) {
    return util::Error::conflict("slot " + slot_name + " has no active implementation");
  }
  return target->validate_parameter(key, value);
}

const std::string& ControlModule::active_implementation(std::string_view slot_name) const {
  static const std::string kNone;
  const Slot* s = slot(slot_name);
  return s == nullptr ? kNone : s->impl_name;
}

// ------------------------------------------------------------------- MAC --

MacControlModule::MacControlModule(VsfCache& cache) : ControlModule(kName, cache) {
  declare_slot(kDlSchedulerSlot);
  declare_slot(kUlSchedulerSlot);
}

util::Status MacControlModule::validate(const std::string& slot, Vsf& vsf) const {
  if (slot == kDlSchedulerSlot && dynamic_cast<DlSchedulerVsf*>(&vsf) == nullptr) {
    return util::Error::invalid_argument("VSF is not a DL scheduler");
  }
  if (slot == kUlSchedulerSlot && dynamic_cast<UlSchedulerVsf*>(&vsf) == nullptr) {
    return util::Error::invalid_argument("VSF is not a UL scheduler");
  }
  return {};
}

void MacControlModule::on_behavior_changed(const std::string& slot, Vsf* vsf) {
  if (slot == kDlSchedulerSlot) dl_scheduler_ = dynamic_cast<DlSchedulerVsf*>(vsf);
}

// ------------------------------------------------------------------- RRC --

RrcControlModule::RrcControlModule(VsfCache& cache) : ControlModule(kName, cache) {
  declare_slot(kHandoverPolicySlot);
}

util::Status RrcControlModule::validate(const std::string& slot, Vsf& vsf) const {
  if (slot == kHandoverPolicySlot && dynamic_cast<HandoverPolicyVsf*>(&vsf) == nullptr) {
    return util::Error::invalid_argument("VSF is not a handover policy");
  }
  return {};
}

void RrcControlModule::on_behavior_changed(const std::string& slot, Vsf* vsf) {
  if (slot == kHandoverPolicySlot) handover_policy_ = dynamic_cast<HandoverPolicyVsf*>(vsf);
}

// ------------------------------------------------------ policy application

namespace {

ControlModule* find_module(std::span<ControlModule* const> modules,
                           const std::string& module_name) {
  for (ControlModule* candidate : modules) {
    if (candidate->name() == module_name) return candidate;
  }
  return nullptr;
}

// First phase of atomic application: checks the full document without
// mutating any module, so a rejection cannot leave a policy half-applied.
util::Status validate_policy_document(const util::YamlNode& root,
                                      std::span<ControlModule* const> modules) {
  if (!root.is_map()) return util::Error::invalid_argument("policy root must be a map");
  for (const auto& [module_name, slots] : root.entries()) {
    const ControlModule* module = find_module(modules, module_name);
    if (module == nullptr) {
      return util::Error::not_found("unknown control module: " + module_name);
    }
    if (!slots.is_map()) {
      return util::Error::invalid_argument("module entry must map VSF slots");
    }
    for (const auto& [slot_name, spec] : slots.entries()) {
      if (!module->has_slot(slot_name)) {
        return util::Error::not_found("module " + module_name + " has no slot " + slot_name);
      }
      if (!spec.is_map()) {
        return util::Error::invalid_argument("slot entry " + module_name + "/" + slot_name +
                                             " must be a map (behavior / parameters)");
      }
      std::string behavior_name;
      if (const auto* behavior = spec.find("behavior"); behavior != nullptr) {
        if (!behavior->is_scalar()) {
          return util::Error::invalid_argument("behavior for " + module_name + "/" + slot_name +
                                               " must be a scalar implementation name");
        }
        behavior_name = behavior->as_string();
        auto status = module->validate_behavior(slot_name, behavior_name);
        if (!status.ok()) return status;
      }
      if (const auto* parameters = spec.find("parameters"); parameters != nullptr) {
        if (!parameters->is_map()) {
          return util::Error::invalid_argument("parameters for " + module_name + "/" +
                                               slot_name + " must be a map");
        }
        for (const auto& [key, value] : parameters->entries()) {
          auto status = module->validate_parameter(slot_name, behavior_name, key, value);
          if (!status.ok()) return status;
        }
      }
    }
  }
  return {};
}

}  // namespace

util::Status apply_policy_document(const util::YamlNode& root,
                                   std::span<ControlModule* const> modules) {
  // Structure (paper Fig. 3):
  //   <module>:
  //     <vsf slot>:
  //       behavior: <cached implementation>
  //       parameters: { key: value, ... }
  //
  // Two phases: validate everything, then apply. The apply phase can only
  // fail if a validate_parameter override disagrees with set_parameter --
  // a VSF implementation bug -- and in that case we still stop at the
  // first error.
  auto valid = validate_policy_document(root, modules);
  if (!valid.ok()) return valid;
  for (const auto& [module_name, slots] : root.entries()) {
    ControlModule* module = find_module(modules, module_name);
    for (const auto& [slot_name, spec] : slots.entries()) {
      if (const auto* behavior = spec.find("behavior"); behavior != nullptr) {
        auto status = module->set_behavior(slot_name, behavior->as_string());
        if (!status.ok()) return status;
      }
      if (const auto* parameters = spec.find("parameters"); parameters != nullptr) {
        for (const auto& [key, value] : parameters->entries()) {
          auto status = module->set_parameter(slot_name, key, value);
          if (!status.ok()) return status;
        }
      }
    }
  }
  return {};
}

util::Status apply_policy_yaml(const std::string& yaml,
                               std::span<ControlModule* const> modules) {
  auto doc = util::parse_yaml(yaml);
  if (!doc.ok()) return doc.error();
  return apply_policy_document(doc.value(), modules);
}

}  // namespace flexran::agent
