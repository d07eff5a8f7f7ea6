package jobs

import "testing"

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", &Stored{ID: "a"})
	c.Put("b", &Stored{ID: "b"})
	if _, ok := c.Get("a"); !ok { // touch a -> b is now LRU
		t.Fatal("a missing")
	}
	c.Put("c", &Stored{ID: "c"}) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should survive")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be present")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	c.Put("a", &Stored{ID: "a"})
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCacheOverwrite(t *testing.T) {
	c := NewCache(2)
	c.Put("a", &Stored{ID: "a", Body: []byte("1")})
	c.Put("a", &Stored{ID: "a", Body: []byte("2")})
	r, ok := c.Get("a")
	if !ok || string(r.Body) != "2" {
		t.Errorf("overwrite lost: %+v ok=%v", r, ok)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}
