// Overload control for the cluster front end: bounded dispatch queues with
// deadline-aware load shedding, plus per-app token-bucket retry budgets.
//
// Admission decides at *enqueue* time, CoDel-style: instead of letting a
// request queue to death and time out after burning a worker, it is shed
// immediately with kResourceExhausted when
//   (a) the target host's dispatch queue is at its hard capacity, or
//   (b) the estimated wait — queue depth × EWMA service time / workers —
//       already exceeds the request's remaining deadline budget.
// A fast rejection costs the client one RTT; a slow timeout costs a queue
// slot, a worker, and everyone behind it. Goodput under 2× overload is won
// almost entirely by (a)+(b).
//
// The retry budget keeps crash recovery from amplifying overload into a
// retry storm: every *accepted first attempt* of an app deposits
// `deposit_ratio` tokens (capped at `burst`), every retry spends one. Under
// normal failure rates the bucket never empties; when failures approach the
// deposit ratio the budget clamps the retry rate to a fixed fraction of the
// offered load instead of letting it multiply.
//
// Both pieces are plain deterministic arithmetic — no clock reads, no RNG.
#ifndef FIREWORKS_SRC_CLUSTER_ADMISSION_H_
#define FIREWORKS_SRC_CLUSTER_ADMISSION_H_

#include <cstdint>
#include <vector>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/cluster/app_table.h"

namespace fwcluster {

using fwbase::Duration;
using fwbase::SimTime;
using fwbase::Status;

struct AdmissionConfig {
  AdmissionConfig() {}

  bool enabled = true;
  // Hard cap on one host's dispatch queue depth (<= 0 disables the cap).
  int queue_capacity = 256;
  // Deadline stamped on submits that do not carry one. Zero = no deadline:
  // requests then only shed on the hard cap, never on estimated wait.
  Duration default_deadline = Duration::Zero();
};

class AdmissionController {
 public:
  AdmissionController(int num_hosts, int workers_per_host, const AdmissionConfig& config);

  // Enqueue-time decision for dispatching to `host` whose queue currently
  // holds `queue_depth` requests. `deadline` is absolute (SimTime::Max() =
  // none). Ok means enqueue; otherwise kResourceExhausted with the reason.
  Status Admit(int host, int64_t queue_depth, SimTime now, SimTime deadline) const;

  // Feeds one observed service time (dequeue → completion) into the host's
  // EWMA used for wait estimation.
  void RecordService(int host, Duration service);

  // Grows the controller by one host (elastic fleet join); the new host's
  // service EWMA starts at the prior.
  void AddHost();

  Duration EstimatedWait(int host, int64_t queue_depth) const;

 private:
  AdmissionConfig config_;
  int workers_per_host_;
  std::vector<double> service_ewma_seconds_;
};

class RetryBudget {
 public:
  // A disabled budget admits every retry. Buckets start at `burst`.
  RetryBudget(bool enabled, double deposit_ratio, double burst);

  // One accepted first attempt of `app`: deposits deposit_ratio tokens.
  void OnAccepted(AppId app);

  // One retry of `app`: spends a token, or returns false when the bucket is
  // empty (the retry must be abandoned).
  bool TrySpend(AppId app);

 private:
  // The bucket of `app`, growing the table with full buckets on first use.
  double& Tokens(AppId app);

  bool enabled_;
  double deposit_ratio_;
  double burst_;
  std::vector<double> tokens_;  // Indexed by AppId.
};

}  // namespace fwcluster

#endif  // FIREWORKS_SRC_CLUSTER_ADMISSION_H_
