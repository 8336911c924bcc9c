#include "src/net/network.h"

#include <utility>

#include "src/base/check.h"
#include "src/fault/fault.h"

namespace fwnet {

namespace {

constexpr Duration kWireLatency = Duration::Micros(60);  // Host-local hop (bridge).
constexpr Duration kNatCost = Duration::Micros(8);       // iptables translation.
constexpr Duration kTapCost = Duration::Micros(10);      // tap read/write + vhost kick.
constexpr double kBandwidthBytesPerSec = 10.0e9 / 8.0;   // 10 GbE.

}  // namespace

Status NetworkNamespace::AttachTap(const TapDevice& tap) {
  for (const auto& existing : taps_) {
    if (existing.name == tap.name) {
      return Status::AlreadyExists("tap device " + tap.name + " already exists in namespace");
    }
    if (existing.guest_ip == tap.guest_ip) {
      return Status::AlreadyExists("guest IP " + tap.guest_ip.ToString() +
                                   " conflicts within namespace");
    }
  }
  taps_.push_back(tap);
  return Status::Ok();
}

Status NetworkNamespace::DetachTap(const std::string& name) {
  for (auto it = taps_.begin(); it != taps_.end(); ++it) {
    if (it->name == name) {
      taps_.erase(it);
      return Status::Ok();
    }
  }
  return Status::NotFound("no tap device " + name);
}

bool NetworkNamespace::HasTap(const std::string& name) const {
  for (const auto& tap : taps_) {
    if (tap.name == name) {
      return true;
    }
  }
  return false;
}

Status NetworkNamespace::AddNatRule(const NatRule& rule) {
  for (const auto& existing : nat_rules_) {
    if (existing.external == rule.external) {
      return Status::AlreadyExists("NAT rule for " + rule.external.ToString() +
                                   " already installed");
    }
  }
  nat_rules_.push_back(rule);
  return Status::Ok();
}

Result<IpAddr> NetworkNamespace::TranslateInbound(IpAddr external) const {
  for (const auto& rule : nat_rules_) {
    if (rule.external == external) {
      return rule.internal;
    }
  }
  return Status::NotFound("no DNAT rule for " + external.ToString());
}

Result<IpAddr> NetworkNamespace::TranslateOutbound(IpAddr internal) const {
  for (const auto& rule : nat_rules_) {
    if (rule.internal == internal) {
      return rule.external;
    }
  }
  return Status::NotFound("no SNAT rule for " + internal.ToString());
}

HostNetwork::HostNetwork(fwsim::Simulation& sim, fwfault::FaultInjector& injector)
    : sim_(sim), injector_(injector) {
  // Namespace 0 is the root namespace.
  namespaces_.push_back(std::make_unique<NetworkNamespace>(next_namespace_id_++));
}

IpAddr HostNetwork::AllocateExternalIp() {
  ++next_external_ip_;
  FW_CHECK_MSG(next_external_ip_ < (1u << 16), "external IP pool exhausted");
  return IpAddr::FromOctets(10, 200, static_cast<uint8_t>(next_external_ip_ >> 8),
                            static_cast<uint8_t>(next_external_ip_ & 0xFF));
}

NetworkNamespace& HostNetwork::CreateNamespace() {
  namespaces_.push_back(std::make_unique<NetworkNamespace>(next_namespace_id_++));
  return *namespaces_.back();
}

NetworkNamespace* HostNetwork::FindNamespace(uint64_t id) {
  for (auto& ns : namespaces_) {
    if (ns->id() == id) {
      return ns.get();
    }
  }
  return nullptr;
}

Status HostNetwork::DestroyNamespace(uint64_t id) {
  FW_CHECK_MSG(id != 0, "cannot destroy the root namespace");
  for (auto it = namespaces_.begin(); it != namespaces_.end(); ++it) {
    if ((*it)->id() == id) {
      // Drop external bindings pointing at this namespace.
      for (auto b = external_bindings_.begin(); b != external_bindings_.end();) {
        if (b->second == id) {
          b = external_bindings_.erase(b);
        } else {
          ++b;
        }
      }
      namespaces_.erase(it);
      return Status::Ok();
    }
  }
  return Status::NotFound("no such namespace");
}

Status HostNetwork::BindExternalIp(IpAddr external, uint64_t namespace_id) {
  if (injector_.Trip(fwfault::FaultKind::kNetNatExhausted)) {
    return Status::ResourceExhausted("NAT port allocation failed for " + external.ToString());
  }
  if (external_bindings_.count(external) != 0) {
    return Status::AlreadyExists("external IP " + external.ToString() + " already bound");
  }
  if (FindNamespace(namespace_id) == nullptr) {
    return Status::NotFound("no such namespace");
  }
  external_bindings_.emplace(external, namespace_id);
  return Status::Ok();
}

Duration HostNetwork::WireTime(uint64_t bytes) {
  return kWireLatency + fwbase::TransferTime(bytes, kBandwidthBytesPerSec);
}

fwsim::Co<Result<IpAddr>> HostNetwork::DeliverInbound(IpAddr dst, uint64_t bytes) {
  co_await fwsim::Delay(sim_, WireTime(bytes));
  if (injector_.Trip(fwfault::FaultKind::kNetLinkLoss)) {
    co_return Status::Unavailable("packet to " + dst.ToString() + " lost on the wire");
  }
  auto binding = external_bindings_.find(dst);
  if (binding == external_bindings_.end()) {
    co_return Status::NotFound("no route to " + dst.ToString());
  }
  NetworkNamespace* ns = FindNamespace(binding->second);
  FW_CHECK(ns != nullptr);
  Result<IpAddr> internal = ns->TranslateInbound(dst);
  if (!internal.ok()) {
    co_return internal.status();
  }
  ++nat_translations_;
  co_await fwsim::Delay(sim_, kNatCost + kTapCost);
  ++packets_delivered_;
  co_return *internal;
}

fwsim::Co<Result<IpAddr>> HostNetwork::SendOutbound(uint64_t namespace_id, IpAddr src,
                                                    uint64_t bytes) {
  NetworkNamespace* ns = FindNamespace(namespace_id);
  if (ns == nullptr) {
    co_return Status::NotFound("no such namespace");
  }
  co_await fwsim::Delay(sim_, kTapCost);
  if (injector_.Trip(fwfault::FaultKind::kNetLinkLoss)) {
    co_return Status::Unavailable("packet from " + src.ToString() + " lost on the wire");
  }
  Result<IpAddr> external = ns->TranslateOutbound(src);
  if (!external.ok()) {
    co_return external.status();
  }
  ++nat_translations_;
  co_await fwsim::Delay(sim_, kNatCost + WireTime(bytes));
  ++packets_sent_;
  co_return *external;
}

}  // namespace fwnet
