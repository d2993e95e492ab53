#include "agent/vsf.h"

namespace flexran::agent {

std::string vsf_key(std::string_view module, std::string_view vsf,
                    std::string_view implementation) {
  std::string key;
  key.reserve(module.size() + vsf.size() + implementation.size() + 2);
  key.append(module);
  key.push_back('/');
  key.append(vsf);
  key.push_back('/');
  key.append(implementation);
  return key;
}

VsfFactory& VsfFactory::instance() {
  static VsfFactory factory;
  return factory;
}

void VsfFactory::register_implementation(std::string module, std::string vsf,
                                         std::string implementation, Factory factory) {
  factories_[vsf_key(module, vsf, implementation)] = std::move(factory);
}

util::Result<std::unique_ptr<Vsf>> VsfFactory::create(std::string_view module,
                                                      std::string_view vsf,
                                                      std::string_view implementation) const {
  auto it = factories_.find(vsf_key(module, vsf, implementation));
  if (it == factories_.end()) {
    return util::Error::not_found("no VSF implementation " +
                                  vsf_key(module, vsf, implementation));
  }
  return it->second();
}

VsfCache::Entry* VsfCache::find(std::string_view module, std::string_view vsf,
                                 std::string_view implementation) {
  auto it = cache_.find(KeyView{module, vsf, implementation});
  return it == cache_.end() ? nullptr : &it->second;
}

const VsfCache::Entry* VsfCache::find(std::string_view module, std::string_view vsf,
                                       std::string_view implementation) const {
  auto it = cache_.find(KeyView{module, vsf, implementation});
  return it == cache_.end() ? nullptr : &it->second;
}

util::Status VsfCache::store(const std::string& module, const std::string& vsf,
                             const std::string& implementation) {
  const Entry* existing = find(module, vsf, implementation);
  if (existing != nullptr && !existing->quarantined) return {};  // already pushed
  // New push, or a fresh updation of a quarantined implementation: either
  // way instantiate from the factory and start with a clean health record.
  auto instance = VsfFactory::instance().create(module, vsf, implementation);
  if (!instance.ok()) return instance.error();
  cache_[Key{module, vsf, implementation}] = Entry{std::move(instance.value()), 0, false};
  return {};
}

Vsf* VsfCache::get(std::string_view module, std::string_view vsf,
                   std::string_view implementation) const {
  const Entry* entry = find(module, vsf, implementation);
  return entry == nullptr ? nullptr : entry->instance.get();
}

std::uint32_t VsfCache::record_failure(std::string_view module, std::string_view vsf,
                                       std::string_view implementation) {
  Entry* entry = find(module, vsf, implementation);
  return entry == nullptr ? 0 : ++entry->consecutive_failures;
}

void VsfCache::record_success(std::string_view module, std::string_view vsf,
                              std::string_view implementation) {
  if (Entry* entry = find(module, vsf, implementation)) entry->consecutive_failures = 0;
}

void VsfCache::quarantine(std::string_view module, std::string_view vsf,
                          std::string_view implementation) {
  if (Entry* entry = find(module, vsf, implementation)) entry->quarantined = true;
}

bool VsfCache::is_quarantined(std::string_view module, std::string_view vsf,
                              std::string_view implementation) const {
  const Entry* entry = find(module, vsf, implementation);
  return entry != nullptr && entry->quarantined;
}

}  // namespace flexran::agent
