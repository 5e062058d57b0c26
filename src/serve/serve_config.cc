#include "serve/serve_config.h"

#include <limits>
#include <set>

#include "engine/ring_limits.h"
#include "util/string_util.h"

namespace fae {
namespace {

constexpr std::string_view kHeader = "FAESERVE v1";

}  // namespace

Status ServeOptions::Validate() const {
  if (batch_size == 0) {
    return Status::InvalidArgument("serve config: batch_size must be >= 1");
  }
  if (!(slo_hit_rate > 0.0) || slo_hit_rate > 1.0) {
    return Status::InvalidArgument(
        "serve config: slo_hit_rate must be in (0, 1]");
  }
  if (!(ema_alpha > 0.0) || ema_alpha > 1.0) {
    return Status::InvalidArgument(
        "serve config: ema_alpha must be in (0, 1]");
  }
  if (recal_window == 0) {
    return Status::InvalidArgument("serve config: recal_window must be >= 1");
  }
  if (recal_cooldown == 0) {
    return Status::InvalidArgument(
        "serve config: recal_cooldown must be >= 1 (back-to-back "
        "recalibrations would starve serving)");
  }
  if (!(watchdog_deadline_seconds > 0.0)) {
    return Status::InvalidArgument(
        "serve config: watchdog_deadline_seconds must be > 0");
  }
  if (max_recal_retries == 0) {
    return Status::InvalidArgument(
        "serve config: max_recal_retries must be >= 1");
  }
  if (!(retry_backoff_seconds >= 0.0)) {
    return Status::InvalidArgument(
        "serve config: retry_backoff_seconds must be >= 0");
  }
  if (!(dense_lr > 0.0f) || !(sparse_lr > 0.0f)) {
    return Status::InvalidArgument(
        "serve config: learning rates must be > 0");
  }
  if (num_threads == 0) {
    return Status::InvalidArgument("serve config: num_threads must be >= 1");
  }
  if (cache == CacheMode::kOracle) {
    if (cache_budget_rows == 0) {
      return Status::InvalidArgument(
          "serve config: cache_budget_rows must be >= 1");
    }
    const StatusOr<size_t> depth = ValidateRingDepth(
        static_cast<long long>(cache_lookahead), "cache_lookahead");
    if (!depth.ok()) return depth.status();
    if (cold_precision != ColdPrecision::kFp32) {
      return Status::InvalidArgument(
          "serve config: cold_precision must be fp32 with cache=oracle: the "
          "cache's budget and transfer accounting assume fp32 cold rows");
    }
  }
  return Status::OK();
}

std::string ServeOptions::Serialize() const {
  std::string out(kHeader);
  out += '\n';
  out += StrFormat("batch_size=%llu\n",
                   static_cast<unsigned long long>(batch_size));
  out += StrFormat("num_batches=%llu\n",
                   static_cast<unsigned long long>(num_batches));
  out += StrFormat("slo_hit_rate=%.17g\n", slo_hit_rate);
  out += StrFormat("ema_alpha=%.17g\n", ema_alpha);
  out += StrFormat("recal_window=%llu\n",
                   static_cast<unsigned long long>(recal_window));
  out += StrFormat("recal_cooldown=%llu\n",
                   static_cast<unsigned long long>(recal_cooldown));
  out += StrFormat("watchdog_deadline_seconds=%.17g\n",
                   watchdog_deadline_seconds);
  out += StrFormat("max_recal_retries=%u\n", max_recal_retries);
  out += StrFormat("retry_backoff_seconds=%.17g\n", retry_backoff_seconds);
  out += StrFormat("continuous_training=%d\n", continuous_training ? 1 : 0);
  out += StrFormat("dense_lr=%.9g\n", static_cast<double>(dense_lr));
  out += StrFormat("sparse_lr=%.9g\n", static_cast<double>(sparse_lr));
  out += StrFormat("num_threads=%llu\n",
                   static_cast<unsigned long long>(num_threads));
  out += StrFormat("seed=%llu\n", static_cast<unsigned long long>(seed));
  return out;
}

StatusOr<ServeOptions> ServeOptions::Parse(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || lines[0] != kHeader) {
    return Status::InvalidArgument(
        StrFormat("serve config: missing '%s' header",
                  std::string(kHeader).c_str()));
  }
  ServeOptions opts;
  std::set<std::string> seen;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) continue;  // blank lines (incl. the trailing one)
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(StrFormat(
          "serve config line %zu: '%s' is not key=value", i + 1,
          line.c_str()));
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (!seen.insert(key).second) {
      return Status::InvalidArgument(
          StrFormat("serve config: duplicate key '%s'", key.c_str()));
    }
    auto bad_value = [&]() {
      return Status::InvalidArgument(StrFormat(
          "serve config: bad value '%s' for key '%s'", value.c_str(),
          key.c_str()));
    };
    uint64_t u = 0;
    double f = 0.0;
    if (key == "batch_size") {
      if (!ParseU64(value, &u)) return bad_value();
      opts.batch_size = u;
    } else if (key == "num_batches") {
      if (!ParseU64(value, &u)) return bad_value();
      opts.num_batches = u;
    } else if (key == "slo_hit_rate") {
      if (!ParseDouble(value, &f)) return bad_value();
      opts.slo_hit_rate = f;
    } else if (key == "ema_alpha") {
      if (!ParseDouble(value, &f)) return bad_value();
      opts.ema_alpha = f;
    } else if (key == "recal_window") {
      if (!ParseU64(value, &u)) return bad_value();
      opts.recal_window = u;
    } else if (key == "recal_cooldown") {
      if (!ParseU64(value, &u)) return bad_value();
      opts.recal_cooldown = u;
    } else if (key == "watchdog_deadline_seconds") {
      if (!ParseDouble(value, &f)) return bad_value();
      opts.watchdog_deadline_seconds = f;
    } else if (key == "max_recal_retries") {
      if (!ParseU64(value, &u) ||
          u > std::numeric_limits<uint32_t>::max()) {
        return bad_value();
      }
      opts.max_recal_retries = static_cast<uint32_t>(u);
    } else if (key == "retry_backoff_seconds") {
      if (!ParseDouble(value, &f)) return bad_value();
      opts.retry_backoff_seconds = f;
    } else if (key == "continuous_training") {
      if (value == "0") {
        opts.continuous_training = false;
      } else if (value == "1") {
        opts.continuous_training = true;
      } else {
        return bad_value();
      }
    } else if (key == "dense_lr") {
      if (!ParseDouble(value, &f)) return bad_value();
      opts.dense_lr = static_cast<float>(f);
    } else if (key == "sparse_lr") {
      if (!ParseDouble(value, &f)) return bad_value();
      opts.sparse_lr = static_cast<float>(f);
    } else if (key == "num_threads") {
      if (!ParseU64(value, &u)) return bad_value();
      opts.num_threads = u;
    } else if (key == "seed") {
      if (!ParseU64(value, &u)) return bad_value();
      opts.seed = u;
    } else {
      return Status::InvalidArgument(
          StrFormat("serve config: unknown key '%s'", key.c_str()));
    }
  }
  FAE_RETURN_IF_ERROR(opts.Validate());
  return opts;
}

}  // namespace fae
