package la

// MatchCSRFormILU0 is matchCSRFormILU0 for the external tests.
var MatchCSRFormILU0 = matchCSRFormILU0
