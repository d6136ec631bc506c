package minic

import (
	"strconv"
	"strings"
)

type lexer struct {
	src  string
	pos  int
	line int
}

// lex tokenizes the sources up front, in turn, into one token list that
// ends in the last source's EOF. Each source's lines are numbered from 1.
func lex(srcs ...string) ([]token, error) {
	var toks []token
	for _, src := range srcs {
		if len(toks) > 0 {
			toks = toks[:len(toks)-1] // the previous source's EOF
		}
		l := &lexer{src: src, line: 1}
		for {
			tok, err := l.next()
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
			if tok.kind == tEOF {
				break
			}
		}
	}
	return toks, nil
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) at(i int) byte {
	if l.pos+i >= len(l.src) {
		return 0
	}
	return l.src[l.pos+i]
}

func (l *lexer) skipSpace() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.at(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.at(1) == '*':
			l.pos += 2
			for {
				if l.pos >= len(l.src) {
					return errf(l.line, "unterminated comment")
				}
				if l.src[l.pos] == '\n' {
					l.line++
				}
				if l.src[l.pos] == '*' && l.at(1) == '/' {
					l.pos += 2
					break
				}
				l.pos++
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// punctuators, longest first.
var puncts = []string{
	"<<=", ">>=",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "->",
	"+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
	"(", ")", "{", "}", "[", "]", ",", ";", ".", "?", ":",
}

func (l *lexer) next() (token, error) {
	if err := l.skipSpace(); err != nil {
		return token{}, err
	}
	line := l.line
	if l.pos >= len(l.src) {
		return token{kind: tEOF, line: line}, nil
	}
	c := l.peekByte()

	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && (isIdentStart(l.src[l.pos]) || isDigit(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		if keywords[text] {
			return token{kind: tKeyword, text: text, line: line}, nil
		}
		return token{kind: tIdent, text: text, line: line}, nil

	case isDigit(c):
		start := l.pos
		isFloat := false
		if c == '0' && (l.at(1) == 'x' || l.at(1) == 'X') {
			l.pos += 2
			for l.pos < len(l.src) && isHex(l.src[l.pos]) {
				l.pos++
			}
		} else {
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
			if l.peekByte() == '.' && isDigit(l.at(1)) {
				isFloat = true
				l.pos++
				for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
					l.pos++
				}
			}
			if l.peekByte() == 'e' || l.peekByte() == 'E' {
				save := l.pos
				l.pos++
				if l.peekByte() == '+' || l.peekByte() == '-' {
					l.pos++
				}
				if isDigit(l.peekByte()) {
					isFloat = true
					for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
						l.pos++
					}
				} else {
					l.pos = save
				}
			}
		}
		text := l.src[start:l.pos]
		if isFloat {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return token{}, errf(line, "bad float literal %q", text)
			}
			return token{kind: tFloatLit, fval: f, line: line}, nil
		}
		v, err := strconv.ParseInt(text, 0, 64)
		if err != nil || v > 0xFFFFFFFF {
			return token{}, errf(line, "bad integer literal %q", text)
		}
		return token{kind: tIntLit, ival: v, line: line}, nil

	case c == '\'':
		l.pos++
		var v byte
		if l.peekByte() == '\\' {
			l.pos++
			e, err := unescape(l.peekByte(), line)
			if err != nil {
				return token{}, err
			}
			v = e
			l.pos++
		} else {
			v = l.peekByte()
			l.pos++
		}
		if l.peekByte() != '\'' {
			return token{}, errf(line, "unterminated char literal")
		}
		l.pos++
		return token{kind: tCharLit, ival: int64(v), line: line}, nil

	case c == '"':
		l.pos++
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, errf(line, "unterminated string literal")
			}
			ch := l.src[l.pos]
			if ch == '"' {
				l.pos++
				break
			}
			if ch == '\\' {
				l.pos++
				e, err := unescape(l.peekByte(), line)
				if err != nil {
					return token{}, err
				}
				b.WriteByte(e)
				l.pos++
				continue
			}
			if ch == '\n' {
				return token{}, errf(line, "newline in string literal")
			}
			b.WriteByte(ch)
			l.pos++
		}
		return token{kind: tStrLit, text: b.String(), line: line}, nil
	}

	for _, p := range puncts {
		if strings.HasPrefix(l.src[l.pos:], p) {
			l.pos += len(p)
			return token{kind: tPunct, text: p, line: line}, nil
		}
	}
	return token{}, errf(line, "unexpected character %q", string(c))
}

func isHex(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func unescape(c byte, line int) (byte, error) {
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	}
	return 0, errf(line, "bad escape \\%c", c)
}
