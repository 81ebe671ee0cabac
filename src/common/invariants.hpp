// Gated runtime invariant layer (-DESCHED_DEBUG_INVARIANTS=ON).
//
// Cheap structural assertions at subsystem boundaries: conservative
// generators before stationary solves, sorted/bounded CSR structure after
// construction, probability vectors on solver outputs, lease-state
// transitions in the distributed queue. The check functions always exist
// (tests call them directly in every build type); the ESCHED_DEBUG_CHECK
// macro compiles call sites to nothing unless the CMake option is ON, so
// release hot paths pay zero cost. Sanitizer CI builds enable the option,
// so memory/race detection and structural validation compound.
//
// Failures throw esched::Error via the same detail::fail path as
// ESCHED_CHECK/ESCHED_ASSERT, tagged "debug invariant".
#pragma once

#include <cstddef>
#include <string>

#include "linalg/csr.hpp"
#include "linalg/matrix.hpp"

#if defined(ESCHED_DEBUG_INVARIANTS) && ESCHED_DEBUG_INVARIANTS
#define ESCHED_DEBUG_CHECK(call)        \
  do {                                  \
    ::esched::invariants::call;         \
  } while (0)
#else
#define ESCHED_DEBUG_CHECK(call) ((void)0)
#endif

namespace esched::invariants {

/// True when the translation units were compiled with the invariant layer
/// active (i.e. ESCHED_DEBUG_CHECK call sites are live).
constexpr bool enabled() {
#if defined(ESCHED_DEBUG_INVARIANTS) && ESCHED_DEBUG_INVARIANTS
  return true;
#else
  return false;
#endif
}

/// Ad-hoc boolean invariant: throws esched::Error naming `where` when
/// `condition` is false. Prefer the structural checks below where one fits.
void require(bool condition, const char* where, const std::string& what);

/// A CTMC generator split as (off-diagonal CSR `rates`, per-state
/// `exit_rates`): every stored rate must be finite and >= 0, no diagonal
/// entries, and each row's rate sum must equal its exit rate to roundoff
/// (conservative generator). O(nnz).
void check_generator(const CsrMatrix& rates, const Vector& exit_rates,
                     const char* where);

/// A probability vector: finite, entries >= -1e-12 (roundoff-negative is
/// tolerated, genuinely negative mass is not), sum within 1e-8 of 1.
void check_probability_vector(const Vector& pi, const char* where);

/// CSR structural contract after from_triplets(): row_ptr monotone
/// covering col_idx/values exactly, columns strictly ascending within each
/// row and < cols(). O(nnz).
void check_csr(const CsrMatrix& m, const char* where);

}  // namespace esched::invariants
