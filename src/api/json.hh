/**
 * @file
 * The query API's spelling (oma::api::appendJsonString, ...) of the
 * strict JSON codec in support/json.hh, for the code outside the
 * library that uses it: perfbench/ and the tests' JSON path lookups.
 */

#ifndef OMA_API_JSON_HH
#define OMA_API_JSON_HH

#include "support/json.hh"

namespace oma::api
{

using oma::appendJsonString;
using oma::JsonValue;
using oma::parseJson;

} // namespace oma::api

#endif // OMA_API_JSON_HH
