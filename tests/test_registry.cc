/**
 * @file
 * Scheme-registry tests (docs/SCHEMES.md): the registration contract
 * (idempotence, canonical naming, SchemeKind ordering), the
 * unknown-name error path every CLI shares, the
 * schemeKindFromName()/schemeKindName() round trip, the line-cache
 * config checks, and a
 * parameterized all-registered-schemes smoke run with invariant
 * checks and the drain audit enabled.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "dramcache/scheme_registry.hh"
#include "harden/diag.hh"
#include "schemes/register_all.hh"
#include "system/system.hh"

namespace nomad
{
namespace
{

const std::vector<SchemeKind> &
allKinds()
{
    static const std::vector<SchemeKind> kinds = {
        SchemeKind::Baseline, SchemeKind::Tid,     SchemeKind::Tdc,
        SchemeKind::Nomad,    SchemeKind::Ideal,   SchemeKind::Tiering,
        SchemeKind::Alloy,    SchemeKind::Banshee, SchemeKind::Tdram,
    };
    return kinds;
}

TEST(SchemeRegistry, EveryKindIsRegistered)
{
    registerAllSchemes();
    const SchemeRegistry &reg = SchemeRegistry::instance();
    EXPECT_EQ(reg.size(), allKinds().size());
    for (SchemeKind k : allKinds()) {
        const SchemeEntry *entry = reg.find(k);
        ASSERT_NE(entry, nullptr) << schemeKindName(k);
        EXPECT_EQ(entry->kind, k);
        EXPECT_STREQ(entry->name, schemeKindName(k));
        EXPECT_NE(entry->description, nullptr);
        ASSERT_NE(entry->factory, nullptr);
    }
}

TEST(SchemeRegistry, RegistrationIsIdempotent)
{
    registerAllSchemes();
    SchemeRegistry &reg = SchemeRegistry::instance();
    const std::size_t before = reg.size();

    // Calling the entry points again must change nothing.
    registerAllSchemes();
    registerNomadScheme(reg);
    EXPECT_EQ(reg.size(), before);

    // add() reports the repeat instead of clobbering the entry.
    const SchemeEntry *nomad = reg.find(SchemeKind::Nomad);
    ASSERT_NE(nomad, nullptr);
    SchemeEntry dup = *nomad;
    dup.description = "impostor";
    EXPECT_FALSE(reg.add(dup));
    EXPECT_STREQ(reg.find(SchemeKind::Nomad)->description,
                 nomad->description);
}

TEST(SchemeRegistry, AllIsInSchemeKindOrder)
{
    registerAllSchemes();
    const std::vector<const SchemeEntry *> entries =
        SchemeRegistry::instance().all();
    ASSERT_EQ(entries.size(), allKinds().size());
    for (std::size_t i = 0; i < entries.size(); ++i)
        EXPECT_EQ(entries[i]->kind, allKinds()[i]) << i;
}

TEST(SchemeRegistry, NameLookupIsCaseInsensitive)
{
    registerAllSchemes();
    const SchemeRegistry &reg = SchemeRegistry::instance();
    for (SchemeKind k : allKinds()) {
        std::string lower = schemeKindName(k);
        for (char &c : lower)
            c = static_cast<char>(std::tolower(
                static_cast<unsigned char>(c)));
        const SchemeEntry *entry = reg.findByName(lower);
        ASSERT_NE(entry, nullptr) << lower;
        EXPECT_EQ(entry->kind, k);
        EXPECT_EQ(reg.parseNameOrThrow(lower), k);
    }
}

TEST(SchemeRegistry, UnknownNameThrowsListingRegisteredNames)
{
    registerAllSchemes();
    const SchemeRegistry &reg = SchemeRegistry::instance();
    EXPECT_EQ(reg.findByName("no-such-scheme"), nullptr);
    try {
        reg.parseNameOrThrow("no-such-scheme");
        FAIL() << "expected ConfigError";
    } catch (const harden::SimError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("no-such-scheme"), std::string::npos)
            << msg;
        // The message must name every registered scheme so the user
        // can correct the flag without consulting the docs.
        for (SchemeKind k : allKinds())
            EXPECT_NE(msg.find(schemeKindName(k)), std::string::npos)
                << msg << " missing " << schemeKindName(k);
    }
}

TEST(SchemeRegistry, SchemeKindNameRoundTrips)
{
    for (SchemeKind k : allKinds()) {
        const auto parsed = schemeKindFromName(schemeKindName(k));
        ASSERT_TRUE(parsed.has_value()) << schemeKindName(k);
        EXPECT_EQ(*parsed, k);
    }
    EXPECT_FALSE(schemeKindFromName("").has_value());
    EXPECT_FALSE(schemeKindFromName("NOMAD2").has_value());
}

TEST(SchemeRegistry, UnknownSchemeConfigErrorFromValidate)
{
    // A kind value outside the enum cannot be registered; validate()
    // resolves the scheme through the registry and must reject it
    // with the registered list rather than crash.
    SystemConfig cfg;
    cfg.scheme = static_cast<SchemeKind>(250);
    try {
        cfg.validate();
        FAIL() << "expected ConfigError";
    } catch (const harden::SimError &e) {
        EXPECT_NE(std::string(e.what()).find("not registered"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * Line-cache configs the controller cannot run must fail validate()
 * with a typed ConfigError naming the field. Zero reads in flight,
 * writeback jobs or queue entries hang the run; a line size or
 * capacity that does not divide into sets aborts the scheme
 * constructor; and a zero target limit contradicts the MSHR, which
 * always holds the target that allocated it.
 */
TEST(SchemeRegistry, LineCacheConfigsThatCannotRunAreRejected)
{
    struct Case
    {
        SchemeKind scheme;
        const char *field;
        std::function<void(SystemConfig &)> set;
    };
    const Case cases[] = {
        {SchemeKind::Tid, "tid.maxReadsInFlight",
         [](SystemConfig &c) { c.tid.maxReadsInFlight = 0; }},
        {SchemeKind::Tid, "tid.maxWritebackJobs",
         [](SystemConfig &c) { c.tid.maxWritebackJobs = 0; }},
        {SchemeKind::Alloy, "alloy.maxWritebackJobs",
         [](SystemConfig &c) { c.alloy.maxWritebackJobs = 0; }},
        {SchemeKind::Tdram, "tdram.maxWritebackJobs",
         [](SystemConfig &c) { c.tdram.maxWritebackJobs = 0; }},
        {SchemeKind::Tid, "tid.lineBytes",
         [](SystemConfig &c) { c.tid.lineBytes = 96; }},
        {SchemeKind::Tid, "tid.controllerQueueDepth",
         [](SystemConfig &c) { c.tid.controllerQueueDepth = 0; }},
        {SchemeKind::Tid, "tid.targetsPerMshr",
         [](SystemConfig &c) { c.tid.targetsPerMshr = 0; }},
        {SchemeKind::Tid, "tid.capacityBytes",
         [](SystemConfig &c) { c.tid.assoc = 3; }},
        // The capacity the factory derives from dcFrames is checked.
        {SchemeKind::Tdram, "tdram.capacityBytes",
         [](SystemConfig &c) { c.tdram.assoc = 3; }},
    };
    for (const Case &tc : cases) {
        SystemConfig cfg;
        cfg.scheme = tc.scheme;
        tc.set(cfg);
        try {
            cfg.validate();
            ADD_FAILURE() << tc.field << ": expected ConfigError";
        } catch (const harden::SimError &e) {
            EXPECT_EQ(e.diag().kind, harden::ErrorKind::ConfigError)
                << tc.field;
            EXPECT_NE(std::string(e.what()).find(tc.field),
                      std::string::npos)
                << e.what();
        }
    }
    // The defaults stay valid.
    for (SchemeKind k :
         {SchemeKind::Tid, SchemeKind::Alloy, SchemeKind::Tdram}) {
        SystemConfig cfg;
        cfg.scheme = k;
        EXPECT_NO_THROW(cfg.validate()) << schemeKindName(k);
    }
}

/**
 * Every registered scheme must build through its factory entry and
 * survive a short run with model invariant checks and the drain-time
 * leak audit on. This is the registry-driven twin of test_smoke: the
 * scheme list comes from the table, so a newly registered scheme is
 * covered without editing this file.
 */
class RegisteredSchemeSmoke
    : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(RegisteredSchemeSmoke, RunsHardenedAndDrainsClean)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.scheme = GetParam();
    cfg.workload = "libq";
    cfg.instructionsPerCore = 15'000;
    cfg.warmupInstructionsPerCore = 15'000;
    cfg.dcFrames = 2048;
    cfg.harden.checkInvariants = true; // + drain audit on destroy.

    System system(cfg);
    const SystemResults r = system.run();
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LE(r.ipc, 4.0);
    EXPECT_GE(r.stallRatio, 0.0);
    EXPECT_LE(r.stallRatio, 1.0);
}

std::vector<SchemeKind>
registeredKinds()
{
    registerAllSchemes();
    std::vector<SchemeKind> kinds;
    for (const SchemeEntry *entry : SchemeRegistry::instance().all())
        kinds.push_back(entry->kind);
    return kinds;
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, RegisteredSchemeSmoke,
    ::testing::ValuesIn(registeredKinds()),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        return std::string(schemeKindName(info.param));
    });

} // namespace
} // namespace nomad
