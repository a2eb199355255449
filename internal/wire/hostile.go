package wire

// HostileStrings exercise every escaping rule of encoding/json's string
// encoder with SetEscapeHTML(false): quote, backslash, control bytes
// (short and \u00XX forms), HTML metacharacters (left alone), non-ASCII,
// U+2028/U+2029 (escaped) and invalid UTF-8 (replaced). They are the seed
// set shared by this package's tests, serve's renderer tests and gate's
// merge tests — the three places where the writer and the scanner meet.
var HostileStrings = []string{
	`http://example.org/q"uote`,
	`http://example.org/back\slash`,
	"http://example.org/ctl\x01\x1f",
	"http://example.org/nl\n\r\t\b\f",
	"http://example.org/<html>&amp;",
	"http://example.org/ünïcödé/観測",
	"http://example.org/sep\u2028and\u2029",
	"http://example.org/bad\xff\xfeutf8\xc3",
	"http://example.org/del\x7f",
	"",
}
