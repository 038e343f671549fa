/**
 * @file
 * One-call registration of every built-in DRAM-cache scheme.
 *
 * Lives above nomad_dramcache and nomad_tiering so it can reference
 * the per-scheme entry points in both libraries; the direct symbol
 * references are what keep the scheme objects in the link (see
 * scheme_registry.hh). System construction, config validation, and
 * every CLI call this before touching the registry.
 */

#ifndef NOMAD_SCHEMES_REGISTER_ALL_HH
#define NOMAD_SCHEMES_REGISTER_ALL_HH

namespace nomad
{

/**
 * Register every built-in scheme. Runs its body once per process;
 * thread-safe, and a later or concurrent call returns once it is done.
 */
void registerAllSchemes();

} // namespace nomad

#endif // NOMAD_SCHEMES_REGISTER_ALL_HH
