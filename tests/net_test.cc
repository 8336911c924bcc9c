// Unit tests for the network substrate: NAT translation, namespace isolation
// of identical snapshot-clone identities, and conflict detection (§3.5).
#include <gtest/gtest.h>

#include "src/net/addr.h"
#include "src/net/network.h"
#include "tests/test_util.h"

namespace fwnet {
namespace {

using fwbase::StatusCode;
using fwsim::Simulation;
using fwtest::RunSync;
using namespace fwbase::literals;

constexpr IpAddr kGuestIp = IpAddr::FromOctets(172, 16, 0, 2);  // "A.A.A.A"

TEST(AddrTest, IpToString) {
  EXPECT_EQ(IpAddr::FromOctets(10, 200, 1, 2).ToString(), "10.200.1.2");
  EXPECT_EQ(IpAddr().ToString(), "0.0.0.0");
  EXPECT_TRUE(IpAddr().is_zero());
}

TEST(AddrTest, MacToString) {
  EXPECT_EQ(MacAddr(0xAABBCCDDEEFFULL).ToString(), "aa:bb:cc:dd:ee:ff");
}

TEST(AddrTest, Ordering) {
  EXPECT_LT(IpAddr::FromOctets(10, 0, 0, 1), IpAddr::FromOctets(10, 0, 0, 2));
}

// ---------------------------------------------------------------------------
// NetworkNamespace.
// ---------------------------------------------------------------------------

TEST(NamespaceTest, AttachAndDetachTap) {
  NetworkNamespace ns(1);
  EXPECT_TRUE(ns.AttachTap({"tap0", kGuestIp, MacAddr(1)}).ok());
  EXPECT_TRUE(ns.HasTap("tap0"));
  EXPECT_TRUE(ns.DetachTap("tap0").ok());
  EXPECT_FALSE(ns.HasTap("tap0"));
  EXPECT_EQ(ns.DetachTap("tap0").code(), StatusCode::kNotFound);
}

TEST(NamespaceTest, DuplicateTapNameConflicts) {
  NetworkNamespace ns(1);
  EXPECT_TRUE(ns.AttachTap({"tap0", kGuestIp, MacAddr(1)}).ok());
  const auto status = ns.AttachTap({"tap0", IpAddr::FromOctets(172, 16, 0, 9), MacAddr(2)});
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST(NamespaceTest, DuplicateGuestIpConflicts) {
  // Two snapshot clones in ONE namespace: same guest IP — must be rejected.
  NetworkNamespace ns(1);
  EXPECT_TRUE(ns.AttachTap({"tap0", kGuestIp, MacAddr(1)}).ok());
  const auto status = ns.AttachTap({"tap1", kGuestIp, MacAddr(2)});
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST(NamespaceTest, SameTapNameInDifferentNamespacesIsFine) {
  // The whole point of Fig 5: both microVMs keep "tap0" + A.A.A.A because
  // they live in different namespaces.
  NetworkNamespace ns1(1);
  NetworkNamespace ns2(2);
  EXPECT_TRUE(ns1.AttachTap({"tap0", kGuestIp, MacAddr(1)}).ok());
  EXPECT_TRUE(ns2.AttachTap({"tap0", kGuestIp, MacAddr(1)}).ok());
}

TEST(NamespaceTest, NatTranslationRoundTrip) {
  NetworkNamespace ns(1);
  const IpAddr external = IpAddr::FromOctets(10, 200, 0, 1);
  EXPECT_TRUE(ns.AddNatRule({external, kGuestIp}).ok());
  auto in = ns.TranslateInbound(external);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(*in, kGuestIp);
  auto out = ns.TranslateOutbound(kGuestIp);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, external);
}

TEST(NamespaceTest, MissingNatRuleFails) {
  NetworkNamespace ns(1);
  EXPECT_FALSE(ns.TranslateInbound(IpAddr::FromOctets(1, 2, 3, 4)).ok());
  EXPECT_FALSE(ns.TranslateOutbound(kGuestIp).ok());
}

TEST(NamespaceTest, DuplicateNatRuleRejected) {
  NetworkNamespace ns(1);
  const IpAddr external = IpAddr::FromOctets(10, 200, 0, 1);
  EXPECT_TRUE(ns.AddNatRule({external, kGuestIp}).ok());
  EXPECT_EQ(ns.AddNatRule({external, kGuestIp}).code(), StatusCode::kAlreadyExists);
}

// ---------------------------------------------------------------------------
// HostNetwork end-to-end.
// ---------------------------------------------------------------------------

class HostNetworkTest : public fwtest::SimTest {
 protected:
  // Wires one "microVM clone": fresh namespace, tap0/A.A.A.A, NAT to a fresh
  // external IP. Returns {namespace id, external ip}.
  std::pair<uint64_t, IpAddr> WireClone() {
    NetworkNamespace& ns = net_.CreateNamespace();
    FW_CHECK(ns.AttachTap({"tap0", kGuestIp, MacAddr(0xFEED)}).ok());
    const IpAddr external = net_.AllocateExternalIp();
    FW_CHECK(ns.AddNatRule({external, kGuestIp}).ok());
    FW_CHECK(net_.BindExternalIp(external, ns.id()).ok());
    return {ns.id(), external};
  }

  fwtest::Instruments inst_{sim_};
  HostNetwork net_{sim_, inst_.injector};
};

TEST_F(HostNetworkTest, ExternalIpsAreUnique) {
  const IpAddr a = net_.AllocateExternalIp();
  const IpAddr b = net_.AllocateExternalIp();
  EXPECT_NE(a, b);
}

TEST_F(HostNetworkTest, InboundDeliveryTranslatesToGuestIp) {
  auto [ns_id, external] = WireClone();
  auto delivered = RunSync(sim_, net_.DeliverInbound(external, 500));
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(*delivered, kGuestIp);
  EXPECT_EQ(net_.packets_delivered(), 1u);
  EXPECT_EQ(net_.nat_translations(), 1u);
}

TEST_F(HostNetworkTest, TwoClonesWithSameGuestIpDoNotConflict) {
  auto [ns1, ext1] = WireClone();
  auto [ns2, ext2] = WireClone();
  EXPECT_NE(ext1, ext2);
  auto d1 = RunSync(sim_, net_.DeliverInbound(ext1, 100));
  auto d2 = RunSync(sim_, net_.DeliverInbound(ext2, 100));
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(*d1, kGuestIp);
  EXPECT_EQ(*d2, kGuestIp);
}

TEST_F(HostNetworkTest, OutboundSnatRewritesSource) {
  auto [ns_id, external] = WireClone();
  auto src = RunSync(sim_, net_.SendOutbound(ns_id, kGuestIp, 79));
  ASSERT_TRUE(src.ok());
  EXPECT_EQ(*src, external);
  EXPECT_EQ(net_.packets_sent(), 1u);
}

TEST_F(HostNetworkTest, DeliveryToUnboundIpFails) {
  auto result = RunSync(sim_, net_.DeliverInbound(IpAddr::FromOctets(10, 200, 9, 9), 100));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(HostNetworkTest, OutboundFromUnknownNamespaceFails) {
  auto result = RunSync(sim_, net_.SendOutbound(999, kGuestIp, 100));
  EXPECT_FALSE(result.ok());
}

TEST_F(HostNetworkTest, DeliveryTakesWireAndNatTime) {
  auto [ns_id, external] = WireClone();
  const auto t0 = sim_.Now();
  ASSERT_TRUE(RunSync(sim_, net_.DeliverInbound(external, 1000)).ok());
  const auto elapsed = sim_.Now() - t0;
  // wire 60us + nat 8us + tap 10us + ~0.8us transfer.
  EXPECT_GT(elapsed.micros(), 70.0);
  EXPECT_LT(elapsed.micros(), 120.0);
}

TEST_F(HostNetworkTest, DestroyNamespaceDropsBindings) {
  auto [ns_id, external] = WireClone();
  EXPECT_TRUE(net_.DestroyNamespace(ns_id).ok());
  auto result = RunSync(sim_, net_.DeliverInbound(external, 100));
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(net_.DestroyNamespace(ns_id).ok());
}

TEST_F(HostNetworkTest, BindingSameExternalIpTwiceFails) {
  auto [ns_id, external] = WireClone();
  EXPECT_EQ(net_.BindExternalIp(external, ns_id).code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace fwnet
