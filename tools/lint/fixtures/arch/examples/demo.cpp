// Fixture: shipped example code. It includes shape.hpp too, so that header
// is reached and only its layering finding fires.
#include "curve/public.hpp"
#include "curve/shape.hpp"
