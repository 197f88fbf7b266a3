// Fixture: shipped example code.
#include "curve/public.hpp"
