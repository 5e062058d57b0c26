#include "sim/fault_injector.h"

#include <limits>

#include "util/string_util.h"

namespace fae {
namespace {

bool KindTakesStall(FaultKind kind) {
  return kind == FaultKind::kLinkStall || kind == FaultKind::kRecalStall;
}

bool KindTakesRepeat(FaultKind kind) {
  return kind == FaultKind::kDeviceTransient ||
         kind == FaultKind::kLookupLoss;
}

}  // namespace

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDeviceTransient:
      return "device";
    case FaultKind::kLinkStall:
      return "stall";
    case FaultKind::kCorruptSync:
      return "corrupt";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRecalStall:
      return "recal-stall";
    case FaultKind::kSwapCrash:
      return "swap-crash";
    case FaultKind::kLookupLoss:
      return "lookup-loss";
  }
  return "unknown";
}

FaultInjector::FaultInjector(std::vector<FaultEvent> events)
    : events_(std::move(events)), delivered_(events_.size(), false) {}

StatusOr<FaultInjector> FaultInjector::Parse(const std::string& plan) {
  if (plan.empty()) {
    return Status::InvalidArgument(
        "empty fault plan (omit the flag entirely to inject no faults)");
  }
  std::vector<FaultEvent> events;
  for (const std::string& spec : Split(plan, ',')) {
    if (spec.empty()) {
      return Status::InvalidArgument(
          "fault plan has an empty spec (trailing or doubled comma?)");
    }
    const size_t at = spec.find('@');
    if (at == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("fault spec '%s' is missing '@step'", spec.c_str()));
    }
    FaultEvent event;
    const std::string kind = spec.substr(0, at);
    if (kind == "device") {
      event.kind = FaultKind::kDeviceTransient;
    } else if (kind == "stall") {
      event.kind = FaultKind::kLinkStall;
      event.stall_seconds = 0.1;  // default stall when no ':seconds' given
    } else if (kind == "corrupt") {
      event.kind = FaultKind::kCorruptSync;
    } else if (kind == "crash") {
      event.kind = FaultKind::kCrash;
    } else if (kind == "recal-stall") {
      event.kind = FaultKind::kRecalStall;
      event.stall_seconds = 1.0;  // long enough to miss typical deadlines
    } else if (kind == "swap-crash") {
      event.kind = FaultKind::kSwapCrash;
    } else if (kind == "lookup-loss") {
      event.kind = FaultKind::kLookupLoss;
    } else {
      return Status::InvalidArgument(StrFormat(
          "unknown fault kind '%s' (want device|stall|corrupt|crash|"
          "recal-stall|swap-crash|lookup-loss)",
          kind.c_str()));
    }

    std::string rest = spec.substr(at + 1);
    // Optional 'xN' repeat suffix (device / lookup-loss only).
    const size_t x = rest.rfind('x');
    if (x != std::string::npos) {
      uint64_t times = 0;
      if (!ParseU64(std::string_view(rest).substr(x + 1), &times) ||
          times == 0 ||
          times > std::numeric_limits<uint32_t>::max()) {
        return Status::InvalidArgument(StrFormat(
            "fault spec '%s' has a bad repeat count (want 1..2^32-1)",
            spec.c_str()));
      }
      if (!KindTakesRepeat(event.kind)) {
        return Status::InvalidArgument(StrFormat(
            "fault spec '%s': 'xN' only applies to device and lookup-loss "
            "faults",
            spec.c_str()));
      }
      event.times = static_cast<uint32_t>(times);
      rest = rest.substr(0, x);
    }
    // Optional ':seconds' stall duration.
    const size_t colon = rest.find(':');
    if (colon != std::string::npos) {
      if (!KindTakesStall(event.kind)) {
        return Status::InvalidArgument(StrFormat(
            "fault spec '%s': ':seconds' only applies to stall and "
            "recal-stall faults",
            spec.c_str()));
      }
      if (!ParseDouble(std::string_view(rest).substr(colon + 1),
                       &event.stall_seconds) ||
          event.stall_seconds < 0.0) {
        return Status::InvalidArgument(StrFormat(
            "fault spec '%s' has a bad stall duration", spec.c_str()));
      }
      rest = rest.substr(0, colon);
    }
    if (!ParseU64(rest, &event.step)) {
      return Status::InvalidArgument(
          StrFormat("fault spec '%s' has a bad step", spec.c_str()));
    }
    for (const FaultEvent& prior : events) {
      if (prior.kind == event.kind && prior.step == event.step) {
        return Status::InvalidArgument(StrFormat(
            "duplicate fault '%s@%llu' (each kind fires at most once per "
            "step)",
            std::string(FaultKindName(event.kind)).c_str(),
            static_cast<unsigned long long>(event.step)));
      }
    }
    events.push_back(event);
  }
  return FaultInjector(std::move(events));
}

void FaultInjector::SkipUntil(uint64_t step) {
  for (size_t i = 0; i < events_.size(); ++i) {
    if (events_[i].step < step) delivered_[i] = true;
  }
}

std::vector<FaultEvent> FaultInjector::Drain(uint64_t step) {
  std::vector<FaultEvent> due;
  for (size_t i = 0; i < events_.size(); ++i) {
    if (!delivered_[i] && events_[i].step == step) {
      delivered_[i] = true;
      due.push_back(events_[i]);
    }
  }
  return due;
}

}  // namespace fae
