// Fixture: only the oracle is test-only; util/base.hpp has src/ includers.
#include "curve/oracle.hpp"
#include "curve/public.hpp"
#include "util/base.hpp"
