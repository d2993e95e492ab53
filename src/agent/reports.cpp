#include "agent/reports.h"

namespace flexran::agent {

namespace {

void mix(std::uint64_t& hash, std::uint64_t value) {
  // splitmix64 finalizer on the value, combined order-dependently.
  value += 0x9e3779b97f4a7c15ull;
  value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ull;
  value = (value ^ (value >> 27)) * 0x94d049bb133111ebull;
  value ^= value >> 31;
  hash = (hash ^ value) * 0x100000001b3ull;
}

/// Copies the statistics `flags` select from the data plane into `out`;
/// each row of the UeStatsReport table names the flag that selects it, and
/// an unselected row keeps its default (the wire then omits it).
void fill_ue_report(const AgentApi& api, lte::Rnti rnti, std::uint32_t flags,
                    proto::UeStatsReport& out) {
  api.ue_stats(rnti, out);
  proto::UeStatsReport::Fields::each([&]<typename Row>() __attribute__((always_inline)) {
    if constexpr (Row::flag != 0) {
      if ((flags & Row::flag) == 0) Row::reset(out);
    }
  });
}

}  // namespace

void ReportsManager::register_request(const proto::StatsRequest& request,
                                      std::int64_t current_subframe) {
  if (request.flags == 0) {
    registrations_.erase(request.request_id);
    return;
  }
  auto [it, inserted] = registrations_.try_emplace(request.request_id);
  Registration& registration = it->second;
  registration.request = request;
  if (inserted) {
    registration.next_due = current_subframe;  // first report is immediate
  } else {
    // Replacement (e.g. the master renegotiating the period under
    // overload): schedule from now at the NEW period -- inheriting the
    // old next_due would fire on the stale cadence once, and an
    // immediate report would amplify the very load being shed. The
    // triggered-report fingerprint carries over.
    registration.next_due =
        current_subframe + std::max<std::int64_t>(1, effective_period(request));
  }
}

std::span<const proto::StatsReply* const> ReportsManager::collect(std::int64_t subframe) {
  due_.clear();
  retired_.clear();
  for (auto it = registrations_.begin(); it != registrations_.end();) {
    Registration& registration = it->second;
    switch (registration.request.mode) {
      case proto::ReportMode::one_off: {
        auto next = std::next(it);
        if (!registration.fired_once) {
          build_reply(registration, subframe);
          registration.fired_once = true;
          due_.push_back(&registration.reply);
        }
        retired_.push_back(registrations_.extract(it));
        it = next;
        continue;
      }
      case proto::ReportMode::periodic:
        if (subframe >= registration.next_due) {
          build_reply(registration, subframe);
          registration.next_due = subframe + effective_period(registration.request);
          due_.push_back(&registration.reply);
        }
        break;
      case proto::ReportMode::triggered: {
        build_reply(registration, subframe);
        const std::uint64_t print = fingerprint(registration.reply);
        if (!registration.fired_once || print != registration.last_fingerprint) {
          registration.last_fingerprint = print;
          registration.fired_once = true;
          due_.push_back(&registration.reply);
        }
        break;
      }
    }
    ++it;
  }
  return due_;
}

void ReportsManager::build_reply(Registration& registration, std::int64_t subframe) {
  const auto& request = registration.request;
  proto::StatsReply& reply = registration.reply;
  reply.request_id = request.request_id;
  reply.subframe = subframe;

  std::size_t n = 0;
  const auto add = [&](lte::Rnti rnti) {
    if (n == reply.ue_reports.size()) reply.ue_reports.emplace_back();
    fill_ue_report(*api_, rnti, request.flags, reply.ue_reports[n++]);
  };
  if ((request.flags & proto::stats_flags::kAllUeFlags) != 0) {
    if (request.ues.empty()) {
      for (const auto& [rnti, ue] : api_->ues()) add(rnti);
    } else {
      for (const auto rnti : request.ues) add(rnti);
    }
  }
  reply.ue_reports.resize(n);
  reply.cell_reports.clear();
  if (request.flags & proto::stats_flags::kCellLoad) {
    reply.cell_reports.push_back(api_->cell_stats());
  }
}

std::int64_t ReportsManager::effective_period(const proto::StatsRequest& request) const {
  return std::max<std::int64_t>(1, request.periodicity_ttis) *
         static_cast<std::int64_t>(throttle_);
}

std::uint64_t ReportsManager::fingerprint(const proto::StatsReply& reply) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto add = [&](std::uint64_t value) { mix(hash, value); };
  proto::StatsReply::Fields::each([&]<typename Row>() __attribute__((always_inline)) {
    if constexpr (!Row::template names<&proto::StatsReply::subframe>) Row::visit(reply, add);
  });
  return hash;
}

}  // namespace flexran::agent
