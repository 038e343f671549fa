#include "register_all.hh"

#include "dramcache/scheme_registry.hh"

namespace nomad
{

void
registerAllSchemes()
{
    // A function-local static runs the body exactly once; concurrent
    // first callers (sweep workers each constructing a System) block
    // until it has finished, so none reads a half-built table.
    static const bool registered = [] {
        SchemeRegistry &reg = SchemeRegistry::instance();
        registerBaselineScheme(reg);
        registerTidScheme(reg);
        registerTdcScheme(reg);
        registerNomadScheme(reg);
        registerIdealScheme(reg);
        registerTieringScheme(reg);
        registerAlloyScheme(reg);
        registerBansheeScheme(reg);
        registerTdramScheme(reg);
        return true;
    }();
    (void)registered;
}

} // namespace nomad
