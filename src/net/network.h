// Host networking: namespaces, NAT tables, tap devices (§3.5, Fig 5).
//
// Every microVM resumed from the same snapshot has the *same* guest IP, MAC
// and tap-device name baked into its memory image. Fireworks gives each clone
// its own network namespace with a one-to-one NAT (external B.B.B.B ↔ guest
// A.A.A.A), so identical guest identities never collide. This module provides
// exactly that machinery plus conflict detection: attaching two devices with
// the same name or guest IP to one namespace is an error — the failure mode
// the namespaces exist to prevent, and one our tests exercise.
#ifndef FIREWORKS_SRC_NET_NETWORK_H_
#define FIREWORKS_SRC_NET_NETWORK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/net/addr.h"
#include "src/simcore/simulation.h"

namespace fwfault {
class FaultInjector;
}  // namespace fwfault

namespace fwnet {

using fwbase::Duration;
using fwbase::Result;
using fwbase::Status;

struct TapDevice {
  std::string name;  // e.g. "tap0" — identical across snapshot clones.
  IpAddr guest_ip;   // A.A.A.A, also identical across clones.
  MacAddr mac;
};

struct NatRule {
  IpAddr external;  // B.B.B.B
  IpAddr internal;  // A.A.A.A
};

class NetworkNamespace {
 public:
  explicit NetworkNamespace(uint64_t id) : id_(id) {}

  uint64_t id() const { return id_; }

  // Attaches a tap device. Fails if a device with the same name or the same
  // guest IP already exists *in this namespace*.
  Status AttachTap(const TapDevice& tap);
  Status DetachTap(const std::string& name);
  bool HasTap(const std::string& name) const;

  // Installs a DNAT/SNAT pair (iptables). Fails on duplicate external IP.
  Status AddNatRule(const NatRule& rule);

  // DNAT: destination rewrite for an inbound packet to `external`.
  Result<IpAddr> TranslateInbound(IpAddr external) const;
  // SNAT: source rewrite for an outbound packet from `internal`.
  Result<IpAddr> TranslateOutbound(IpAddr internal) const;

 private:
  uint64_t id_;
  std::vector<TapDevice> taps_;
  std::vector<NatRule> nat_rules_;
};

// HostNetwork ties namespaces together: it allocates external IPs, routes
// inbound traffic to the owning namespace, and charges wire + NAT latency.
class HostNetwork {
 public:
  // `injector` may lose a packet in Deliver/Send (charged, then lost) and
  // exhaust NAT ports in BindExternalIp; it must outlive the network.
  HostNetwork(fwsim::Simulation& sim, fwfault::FaultInjector& injector);

  // Allocates the next unused external IP (from 10.200.0.0/16).
  IpAddr AllocateExternalIp();

  // Creates a fresh namespace owned by the host network.
  NetworkNamespace& CreateNamespace();
  Status DestroyNamespace(uint64_t id);

  // Binds an external IP to a namespace (packets to `external` are handed to
  // that namespace's NAT table).
  Status BindExternalIp(IpAddr external, uint64_t namespace_id);

  // Delivers `bytes` to external IP `dst`: wire + NAT + tap latency. Returns
  // the guest IP the payload was delivered to.
  fwsim::Co<Result<IpAddr>> DeliverInbound(IpAddr dst, uint64_t bytes);
  // Sends `bytes` out of a namespace from guest IP `src`; returns the
  // externally visible source IP after SNAT.
  fwsim::Co<Result<IpAddr>> SendOutbound(uint64_t namespace_id, IpAddr src, uint64_t bytes);

  // One host-local hop (bridge latency plus the 10 GbE transfer of `bytes`),
  // the wire part of every delivery and send.
  static Duration WireTime(uint64_t bytes);

  uint64_t packets_delivered() const { return packets_delivered_; }
  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t nat_translations() const { return nat_translations_; }
  size_t namespace_count() const { return namespaces_.size(); }

 private:
  NetworkNamespace* FindNamespace(uint64_t id);

  fwsim::Simulation& sim_;
  std::vector<std::unique_ptr<NetworkNamespace>> namespaces_;
  std::map<IpAddr, uint64_t> external_bindings_;
  uint64_t next_namespace_id_ = 0;
  uint32_t next_external_ip_ = 0;
  uint64_t packets_delivered_ = 0;
  uint64_t packets_sent_ = 0;
  uint64_t nat_translations_ = 0;
  fwfault::FaultInjector& injector_;
};

}  // namespace fwnet

#endif  // FIREWORKS_SRC_NET_NETWORK_H_
