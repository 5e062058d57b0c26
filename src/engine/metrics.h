#ifndef FAE_ENGINE_METRICS_H_
#define FAE_ENGINE_METRICS_H_

#include <cstddef>
#include <vector>

#include "data/batch_view.h"
#include "models/rec_model.h"

namespace fae {

/// One point of a training curve (Fig 12's axes).
struct CurvePoint {
  size_t iteration = 0;     // training batches completed
  double train_loss = 0.0;  // mean loss since the previous point
  double train_acc = 0.0;
  double test_loss = 0.0;
  double test_acc = 0.0;
};

/// Accumulates per-batch training statistics between curve points.
class RunningMetric {
 public:
  /// Accumulator snapshot for checkpoint/resume: restoring it makes the
  /// next Flush/mean identical to an uninterrupted run's.
  struct State {
    double loss_sum = 0.0;
    uint64_t correct = 0;
    uint64_t samples = 0;
    uint64_t batches = 0;
  };

  void Observe(double loss, size_t correct, size_t batch_size);
  /// Mean loss/accuracy since the last Flush; zeros when nothing observed.
  CurvePoint Flush(size_t iteration);

  State state() const {
    return State{loss_sum_, correct_, samples_, batches_};
  }
  void Restore(const State& state) {
    loss_sum_ = state.loss_sum;
    correct_ = state.correct;
    samples_ = state.samples;
    batches_ = state.batches;
  }

  double mean_loss() const;
  double accuracy() const;
  size_t samples() const { return samples_; }

 private:
  double loss_sum_ = 0.0;
  size_t correct_ = 0;
  size_t samples_ = 0;
  size_t batches_ = 0;
};

/// Loss, accuracy, and ROC-AUC of `model` on `batches`, through
/// RecModel::EvalLogits (so between training steps only).
struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;
  /// Area under the ROC curve — the metric CTR systems actually track;
  /// 0.5 = chance, 1.0 = perfect ranking. 0 when a class is absent.
  double auc = 0.0;
  size_t samples = 0;
};
EvalResult Evaluate(RecModel& model, const std::vector<BatchView>& batches);

/// ROC-AUC of `scores` against binary `labels` (>= 0.5 is positive),
/// computed via the rank statistic with midrank tie handling. Returns 0
/// when either class is empty.
double RocAuc(const std::vector<float>& scores,
              const std::vector<float>& labels);

}  // namespace fae

#endif  // FAE_ENGINE_METRICS_H_
